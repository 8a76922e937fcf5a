package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads every results.jsonl line under dir.
func loadRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.jsonl results in %s", dir)
	}
	var recs []record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// metricValues returns one side's values of one workload × metric, ordered
// by seed so that runs of the same seed pair up across sides.
func metricValues(recs []record, workload, metric string) []float64 {
	var rs []record
	for _, r := range recs {
		if _, ok := r.Metrics[metric]; ok && r.Workload == workload {
			rs = append(rs, r)
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.Metrics[metric].Value
	}
	return vs
}

// verdict judges B against A for one metric. A gain needs at least ten
// pairs, B winning nine tenths of them (ties count for neither), and
// medians further apart than A's own interquartile spread. A metric
// with a bound regresses when B's median is worse by more than the
// bound; it is unresolved when A's own spread exceeds the bound and B
// does not beat every A run.
func verdict(a, b []float64, m specMetric) string {
	lower := m.Better == "lower"
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	q1a, meda, q3a := quartiles(a)
	_, medb, _ := quartiles(b)
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if n >= 10 && float64(wins) >= 0.9*float64(n) && math.Abs(medb-meda) > q3a-q1a {
		return "improved"
	}
	if m.Bound == 0 {
		if n >= 10 && float64(n-wins) >= 0.9*float64(n) && math.Abs(medb-meda) > q3a-q1a {
			return "worse"
		}
		return "-"
	}
	worse := (medb - meda) / math.Abs(meda)
	if !lower {
		worse = -worse
	}
	if worse > m.Bound {
		return "regressed"
	}
	if (q3a-q1a)/math.Abs(meda) > m.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if !better(x, y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "within bound"
}

// compareMain prints, for every workload × metric both result sets
// carry, each side's median and quartiles and the verdict, judged by
// the directions and bounds in the repository's BENCHMARK.json.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: nvdbench compare <dirA> <dirB>")
	}
	repo, err := findRepo()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	ra, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	rb, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, r := range ra {
		seen[r.Workload] = true
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tverdict")
	for _, w := range sortedKeys(seen) {
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			a, b := metricValues(ra, w, m.Name), metricValues(rb, w, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			q1a, meda, q3a := quartiles(a)
			q1b, medb, q3b := quartiles(b)
			change := "-"
			if meda != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(medb-meda)/math.Abs(meda))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%s\t%s\n",
				w, m.Name, meda, q1a, q3a, len(a), medb, q1b, q3b, len(b), change, verdict(a, b, m))
		}
	}
	return tw.Flush()
}
