package workload

import (
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/h5lite"
	"hcompress/internal/stats"
)

func TestPaperVPICSizes(t *testing.T) {
	c := PaperVPIC(2560, 16)
	if c.StepBytesPerRank() != 256<<20 {
		t.Errorf("step bytes %d, want 256MB", c.StepBytesPerRank())
	}
	// The motivation experiment: 2560 procs x 16 steps x 256MB = 10TB...
	// the paper quotes "each process produces 1GB" over 16 timesteps for
	// 8TB total; our per-step kernel matches §V-C1 (n*8*2^20*32 bytes).
	want := int64(2560) * 16 * 256 << 20
	if c.TotalBytes() != want {
		t.Errorf("total %d want %d", c.TotalBytes(), want)
	}
}

func TestVPICAttr(t *testing.T) {
	c := PaperVPIC(4, 2)
	a := c.Attr()
	if a.Type != stats.TypeFloat || a.Dist != stats.Gamma {
		t.Errorf("attr %+v", a)
	}
	if a.Size != int(c.StepBytesPerRank()) {
		t.Errorf("size %d", a.Size)
	}
}

func TestGenStepBufferIsValidH5Lite(t *testing.T) {
	c := PaperVPIC(4, 2)
	buf, err := c.GenStepBuffer(1, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f, err := h5lite.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Datasets) != 8 {
		t.Fatalf("VPIC writes 8 properties, got %d", len(f.Datasets))
	}
	for _, d := range f.Datasets {
		if d.Type != stats.TypeFloat {
			t.Errorf("%s: type %v", d.Name, d.Type)
		}
		if d.Elems() != 1024 || len(d.Data) != 4096 {
			t.Errorf("%s: %d elems, %d bytes", d.Name, d.Elems(), len(d.Data))
		}
		if d.Dist == nil {
			t.Errorf("%s: missing dist hint", d.Name)
		}
	}
	if _, ok := f.Lookup("energy"); !ok {
		t.Error("energy property missing")
	}
	// The analyzer must see the container format.
	if r := analyzer.Analyze(buf); r.Format.String() != "h5lite" {
		t.Errorf("format %v", r.Format)
	}
}

func TestGenStepBufferDeterministic(t *testing.T) {
	c := PaperVPIC(4, 2)
	a, _ := c.GenStepBuffer(0, 1, 512)
	b, _ := c.GenStepBuffer(0, 1, 512)
	if string(a) != string(b) {
		t.Error("not deterministic")
	}
	d, _ := c.GenStepBuffer(1, 1, 512)
	if string(a) == string(d) {
		t.Error("ranks produce identical data")
	}
}

func TestTaskKeyUnique(t *testing.T) {
	seen := map[string]bool{}
	for r := 0; r < 4; r++ {
		for s := 0; s < 4; s++ {
			k := TaskKey("vpic", r, s)
			if seen[k] {
				t.Fatalf("duplicate key %s", k)
			}
			seen[k] = true
		}
	}
}

func TestMicroConfig(t *testing.T) {
	m := MicroConfig{TaskBytes: 1 << 20, Type: stats.TypeFloat, Dist: stats.Gamma}
	a := m.Attr()
	if a.Type != stats.TypeFloat || a.Size != 1<<20 {
		t.Errorf("attr %+v", a)
	}
}
