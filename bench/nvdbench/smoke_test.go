package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at 400 CVEs for two seconds with the
// traced replay on, and checks that every check passes, that every
// metric BENCHMARK.json names is printed with its unit and a finite
// value, and that the replay wrote its spans. It asserts no timings.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test execs nvdserve; skipped in -short")
	}
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, nvdbench runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not one nvdbench runs", w.Name)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	build := t.TempDir()
	bin, err := buildNvdserve(ctx, repo, filepath.Join(build, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spans := filepath.Join(build, w.name+"-spans.json")
			cfg := config{bin: bin, work: filepath.Join(build, "work"), seed: 1, seconds: 2, trace: true, spans: spans, cves: 400, log: os.Stderr}
			o, err := runWorkload(ctx, cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed > 0 || o.attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", o.failed, o.attempted, o.failures)
			}
			var out bytes.Buffer
			o.print(&out)
			printed := map[string]string{}
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) != 3 {
					t.Fatalf("malformed metric line %q", sc.Text())
				}
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s has value %q", f[0], f[1])
				}
				printed[f[0]] = f[2]
			}
			for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
				if unit, ok := printed[m.Name]; !ok {
					t.Errorf("metric %s not printed", m.Name)
				} else if unit != m.Unit {
					t.Errorf("metric %s printed in %s, BENCHMARK.json says %s", m.Name, unit, m.Unit)
				}
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
}
