package store

import (
	"bytes"
	"errors"
	"testing"

	"hcompress/internal/hcerr"
	"hcompress/internal/store/backend"
	"hcompress/internal/tier"
)

func fileHier() tier.Hierarchy {
	return tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 10000, Latency: 0, Bandwidth: 1e9, Lanes: 2},
		{Name: "nvme", Capacity: 50000, Latency: 1e-4, Bandwidth: 1e8, Lanes: 1, Backend: tier.BackendFile},
	}}
}

func TestFileBackendRequiresDataDir(t *testing.T) {
	if _, err := Open(fileHier(), Options{KeepData: true}); err == nil {
		t.Fatal("Open must fail when a file tier has no DataDir")
	}
}

func TestFileBackedStoreRoundTripMoveAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(fileHier(), Options{KeepData: true, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	d1 := bytes.Repeat([]byte{7}, 333)
	d2 := []byte("stays on the durable tier")
	if _, err := s.Put(0, 1, "moved", d1, int64(len(d1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(1, 1, "kept", d2, int64(len(d2))); err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Get(2, "moved")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Data, d1) {
		t.Fatal("file-tier Get mismatch")
	}
	s.Release(b)

	// file → mem and back: the payload must survive both handoffs.
	if _, err := s.Move(3, "moved", 0); err != nil {
		t.Fatal(err)
	}
	if s.Used(1) != int64(len(d2)) || s.Used(0) != int64(len(d1)) {
		t.Fatalf("capacity after move: ram=%d nvme=%d", s.Used(0), s.Used(1))
	}
	if _, err := s.Move(4, "moved", 1); err != nil {
		t.Fatal(err)
	}
	b, _, err = s.Get(5, "moved")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Data, d1) || b.Tier != 1 {
		t.Fatal("payload lost across moves")
	}
	s.Release(b)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold reopen on the same directory: the durable tier's contents
	// re-enter the blob directory with their capacity re-charged.
	s2, err := Open(fileHier(), Options{KeepData: true, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("recovered %d blobs, want 2", s2.Len())
	}
	if got, want := s2.Used(1), int64(len(d1)+len(d2)); got != want {
		t.Fatalf("recovered Used(1) = %d, want %d", got, want)
	}
	if s2.Used(0) != 0 {
		t.Fatalf("mem tier recovered %d bytes, want 0", s2.Used(0))
	}
	for key, want := range map[string][]byte{"moved": d1, "kept": d2} {
		b, _, err := s2.Get(10, key)
		if err != nil {
			t.Fatalf("Get(%q) after reopen: %v", key, err)
		}
		if !bytes.Equal(b.Data, want) || b.Tier != 1 {
			t.Fatalf("reopened %q mismatch (tier %d)", key, b.Tier)
		}
		s2.Release(b)
	}
}

func TestStatusReportsBackendKind(t *testing.T) {
	s, err := Open(fileHier(), Options{KeepData: true, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Status(0)
	if st[0].Backend != "mem" || st[1].Backend != "file" {
		t.Fatalf("Status backends = %q/%q, want mem/file", st[0].Backend, st[1].Backend)
	}
}

// failBackend wraps Mem but refuses every Put — the broken-device stub
// for the health-observation path.
type failBackend struct {
	*backend.Mem
	putErr error
}

func (f *failBackend) Put(now float64, key string, r *backend.Ref) (backend.Handle, error) {
	return 0, f.putErr
}

func TestBackendPutFailureObservedAndSpillable(t *testing.T) {
	devErr := errors.New("device: write failed")
	var observed []error
	s, err := Open(testHier(), Options{
		KeepData: true,
		backends: []backend.TierBackend{
			&failBackend{Mem: backend.NewMem(), putErr: devErr},
			backend.NewMem(),
		},
		HealthSink: func(now float64, tr int, err error) {
			if err != nil && tr == 0 {
				observed = append(observed, err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := []byte("doomed write")
	_, err = s.Put(0, 0, "k", data, int64(len(data)))
	if !errors.Is(err, hcerr.ErrBackendIO) {
		t.Fatalf("Put = %v, want ErrBackendIO", err)
	}
	if !errors.Is(err, devErr) {
		t.Fatal("device error must stay in the chain")
	}
	if len(observed) == 0 {
		t.Fatal("backend failure never reached the health sink")
	}
	// The failed put must leave no residue: capacity free, key absent.
	if s.Used(0) != 0 || s.Len() != 0 {
		t.Fatalf("residue after failed put: used=%d len=%d", s.Used(0), s.Len())
	}
	// The healthy tier still accepts the key.
	if _, err := s.Put(1, 1, "k", data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
}
