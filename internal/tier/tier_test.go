package tier

import (
	"strings"
	"testing"
)

func TestAresShape(t *testing.T) {
	h := Ares(64*GB, 192*GB, 2*TB, 100*TB)
	if h.Len() != 4 {
		t.Fatalf("len %d", h.Len())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	names := []string{nameRAM, nameNVM, nameBB, namePFS}
	for i, n := range names {
		if h.Tiers[i].Name != n {
			t.Errorf("tier %d = %s want %s", i, h.Tiers[i].Name, n)
		}
	}
	// Bandwidth must strictly decrease down the hierarchy (the property
	// the whole paper rests on).
	for i := 1; i < h.Len(); i++ {
		if h.Tiers[i].Bandwidth >= h.Tiers[i-1].Bandwidth {
			t.Errorf("bandwidth not decreasing at tier %d", i)
		}
		if h.Tiers[i].Latency <= h.Tiers[i-1].Latency {
			t.Errorf("latency not increasing at tier %d", i)
		}
	}
}

func TestConcurrency(t *testing.T) {
	h := Ares(GB, GB, GB, GB)
	want := 0
	for _, s := range h.Tiers {
		want += s.Lanes
	}
	if want <= 0 || h.Concurrency() != want {
		t.Errorf("Concurrency %d want %d", h.Concurrency(), want)
	}
}

func TestValidateRejectsBadHierarchies(t *testing.T) {
	cases := []Hierarchy{
		{},
		{Tiers: []Spec{{Name: "", Capacity: 1, Bandwidth: 1, Lanes: 1}}},
		{Tiers: []Spec{{Name: "a", Capacity: 0, Bandwidth: 1, Lanes: 1}}},
		{Tiers: []Spec{{Name: "a", Capacity: 1, Bandwidth: 0, Lanes: 1}}},
		{Tiers: []Spec{{Name: "a", Capacity: 1, Bandwidth: 1, Lanes: 0}}},
		{Tiers: []Spec{{Name: "a", Capacity: 1, Bandwidth: 1, Lanes: 1, Latency: -1}}},
		{Tiers: []Spec{
			{Name: "a", Capacity: 1, Bandwidth: 1, Lanes: 1},
			{Name: "a", Capacity: 1, Bandwidth: 1, Lanes: 1},
		}},
	}
	for i, h := range cases {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestServiceTimeMonotonic(t *testing.T) {
	s := Spec{Name: "x", Capacity: GB, Latency: 1e-3, Bandwidth: 1e9, Lanes: 4}
	if s.ServiceTime(0) != 1e-3 {
		t.Error("zero-byte service time should equal latency")
	}
	if s.ServiceTime(1000) >= s.ServiceTime(100000) {
		t.Error("service time must grow with size")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		2 * kb:  "2.0KB",
		3 * MB:  "3.0MB",
		5 * GB:  "5.0GB",
		2 * TB:  "2.0TB",
		1536:    "1.5KB",
		GB + GB: "2.0GB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q want %q", n, got, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	for _, spec := range Ares(GB, GB, GB, GB).Tiers {
		if s := spec.String(); !strings.HasPrefix(s, spec.Name+"{") {
			t.Errorf("String() = %s, want it to start with %s{", s, spec.Name)
		}
	}
}
