package main

import (
	"math"
	"os"
	"testing"
)

func TestAttributeInnermostRepoFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/ufs.(*FS).storeDir", "repro/internal/server.(*Server).doMkdir"}, "ufs"},
		{[]string{"repro/internal/nfsproto.DecodeWriteArgs", "repro/internal/server.(*Server).handle"}, "wire"},
		{[]string{"repro/internal/cluster.(*Node).boot", "repro/internal/scenario.runClusterCell"}, "assembly"},
		{[]string{"repro/internal/vfs.Attr.Size"}, layerRepoRest},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, layerSched},
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.main", "runtime.main"}, layerRuntime},
		{nil, layerRuntime},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseTracesFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	table, err := parseTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		layerSched:    0.010,
		"obs":         1.200,
		layerGC:       0.300,
		"wire":        0.150,
		layerRepoRest: 0.040,
		layerRuntime:  0.030,
		"ufs":         0.020,
	}
	sum := 0.0
	for _, l := range layerOrder {
		got := table.seconds[l]
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("layer %s = %.3fs, want %.3fs", l, got, want[l])
		}
	}
	if len(table.seconds) != len(want) {
		t.Errorf("layers %v, want exactly %v", table.seconds, want)
	}
	if math.Abs(sum-1.75) > 1e-9 || math.Abs(table.total-1.75) > 1e-9 || math.Abs(table.header-1.75) > 1e-9 {
		t.Errorf("layer sum %.3f, total %.3f, header %.3f; want all 1.75", sum, table.total, table.header)
	}
	if err := table.check(); err != nil {
		t.Error(err)
	}
}

func TestLayerTableCheckCatchesMismatch(t *testing.T) {
	table := layerTable{seconds: map[string]float64{"sim": 1}, total: 1, header: 2}
	if table.check() == nil {
		t.Error("check accepted a table summing to half the profile total")
	}
	if (layerTable{}).check() == nil {
		t.Error("check accepted an empty profile")
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]float64{"10ms": 0.01, "1.50s": 1.5, "250us": 250e-6, "2hrs": 7200, "900ns": 900e-9}
	for in, want := range cases {
		got, err := parseDuration(in)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseDuration("10 parsecs"); err == nil {
		t.Error("parseDuration accepted an unknown unit")
	}
}

// Every layer bucket is reported as a metric and every host metric names
// a bucket, so the reported layers sum to profile.total_s.
func TestLayerMetricsCoverTable(t *testing.T) {
	names := map[string]bool{}
	for _, m := range perLayerMetrics {
		names[m.name] = true
	}
	for _, l := range layerOrder {
		if !names[hostMetricName(l)] {
			t.Errorf("layer %s has no metric %s", l, hostMetricName(l))
		}
	}
	for _, l := range layerOf {
		found := false
		for _, o := range layerOrder {
			found = found || o == l
		}
		if !found {
			t.Errorf("bucket %s missing from layerOrder", l)
		}
	}
}
