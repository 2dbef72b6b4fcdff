package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseRunFlags pins the numeric-flag checks: out-of-range loads,
// -seeds below 1, and negative -flows are rejected before any cell runs.
func TestParseRunFlags(t *testing.T) {
	for _, tc := range []struct {
		loads   string
		seeds   int
		flows   int
		want    []float64
		wantErr string
	}{
		{loads: "", seeds: 1, flows: 0, want: nil},
		{loads: "0.5,0.9", seeds: 3, flows: 300, want: []float64{0.5, 0.9}},
		{loads: " 1 , 0.01", seeds: 1, flows: 0, want: []float64{1, 0.01}},
		{loads: "1.5", seeds: 1, wantErr: "out of (0, 1]"},
		{loads: "-0.5", seeds: 1, wantErr: "out of (0, 1]"},
		{loads: "0", seeds: 1, wantErr: "out of (0, 1]"},
		{loads: "NaN", seeds: 1, wantErr: "out of (0, 1]"},
		{loads: "+Inf", seeds: 1, wantErr: "out of (0, 1]"},
		{loads: "0.5,", seeds: 1, wantErr: "bad load"},
		{loads: "x", seeds: 1, wantErr: "bad load"},
		{loads: "0.5", seeds: 0, wantErr: "-seeds 0"},
		{loads: "0.5", seeds: -2, wantErr: "-seeds -2"},
		{loads: "0.5", seeds: 1, flows: -3, wantErr: "-flows -3"},
	} {
		got, err := parseRunFlags(tc.loads, tc.seeds, tc.flows)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseRunFlags(%q, %d, %d) error = %v, want one containing %q",
					tc.loads, tc.seeds, tc.flows, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("parseRunFlags(%q, %d, %d) = %v, %v; want %v",
				tc.loads, tc.seeds, tc.flows, got, err, tc.want)
		}
	}
}

// FuzzParseLoads checks parseLoads never panics and accepts only loads
// inside (0, 1].
func FuzzParseLoads(f *testing.F) {
	for _, s := range []string{"", "0.5,0.9", "1.5", "-0.5", "NaN", "1e-300", "0x1p-2", ",,"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		loads, err := parseLoads(s)
		if err != nil {
			return
		}
		for _, v := range loads {
			if !(v > 0 && v <= 1) {
				t.Fatalf("parseLoads(%q) accepted %v", s, v)
			}
		}
	})
}
