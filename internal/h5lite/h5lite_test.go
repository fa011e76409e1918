package h5lite

import (
	"bytes"
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/stats"
)

func sampleFile() *File {
	gamma := stats.Gamma
	f := &File{}
	f.Add(Dataset{
		Name: "energy", Type: stats.TypeFloat, Dist: &gamma,
		Dims: []uint64{1024}, Data: make([]byte, 4096),
	})
	f.Add(Dataset{
		Name: "id", Type: stats.TypeInt,
		Dims: []uint64{32, 32}, Data: make([]byte, 4096),
	})
	return f
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile()
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Datasets) != 2 {
		t.Fatalf("datasets %d", len(back.Datasets))
	}
	d0 := back.Datasets[0]
	if d0.Name != "energy" || d0.Type != stats.TypeFloat || d0.Dist == nil || *d0.Dist != stats.Gamma {
		t.Errorf("dataset 0: %+v", d0)
	}
	if d0.Elems() != 1024 {
		t.Errorf("elems %d", d0.Elems())
	}
	d1 := back.Datasets[1]
	if d1.Dist != nil {
		t.Error("dataset 1 should have no dist hint")
	}
	if d1.Elems() != 1024 || len(d1.Dims) != 2 {
		t.Errorf("dataset 1 dims: %v", d1.Dims)
	}
	if !bytes.Equal(d0.Data, f.Datasets[0].Data) {
		t.Error("data mismatch")
	}
}

func TestLookup(t *testing.T) {
	f := sampleFile()
	if _, ok := f.Lookup("energy"); !ok {
		t.Error("lookup energy failed")
	}
	if _, ok := f.Lookup("missing"); ok {
		t.Error("missing dataset found")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := sampleFile()
	buf, _ := f.Encode()
	cases := [][]byte{
		nil,
		{1, 2, 3},
		[]byte("NOTMAGIC" + string(make([]byte, 20))),
		buf[:len(buf)-100],   // truncated data
		buf[:7],              // truncated superblock
		append(buf, 1, 2, 3), // trailing garbage
		func() []byte { b := append([]byte(nil), buf...); b[4] = 99; return b }(), // bad version
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: corruption accepted", i)
		}
	}
}

func TestEmptyFile(t *testing.T) {
	f := &File{}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Datasets) != 0 {
		t.Error("phantom datasets")
	}
}

func TestAnalyzerIntegration(t *testing.T) {
	// The analyzer recognizes h5lite containers by magic, and the
	// container's self-described attributes supply the hint without
	// statistical detection.
	f := sampleFile()
	buf, _ := f.Encode()
	r := analyzer.Analyze(buf)
	if r.Format.String() != "h5lite" {
		t.Errorf("format %v", r.Format)
	}
	back, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	d := back.Datasets[0]
	r2 := analyzer.AnalyzeWithHint(buf, &analyzer.Hint{Type: &d.Type, Dist: d.Dist})
	if r2.Type != stats.TypeFloat || r2.Dist != stats.Gamma {
		t.Errorf("fast path attributes: %+v", r2)
	}
}

func TestEncodeLimits(t *testing.T) {
	f := &File{}
	f.Add(Dataset{Name: string(make([]byte, 70000))})
	if _, err := f.Encode(); err == nil {
		t.Error("oversized name accepted")
	}
	f2 := &File{}
	f2.Add(Dataset{Name: "d", Dims: make([]uint64, 300)})
	if _, err := f2.Encode(); err == nil {
		t.Error("too many dims accepted")
	}
}
