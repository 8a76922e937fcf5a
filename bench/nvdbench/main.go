// Command nvdbench is nvdserve's benchmark: it generates a workload's
// inputs from a seed, runs nvdserve as child processes over real
// sockets, checks every answer, and prints end-to-end metrics (and,
// with -trace 1, per-layer metrics from a traced in-process replay).
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload read-hot --seed 1 --seconds 16 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out .bench_build/before
//	bash bench/run.sh compare .bench_build/before .bench_build/after
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The process exits non-zero when a correctness check fails. See
// bench/README.md for the workloads, metrics and how to compare runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSet says where a metric belongs: the end-to-end set (the final
// JSON of a -trace 0 run), the per-layer set (of a -trace 1 run), or
// neither — printed for the reader because it is zero on most workloads
// or restates another metric.
type metricSet int

const (
	endToEnd metricSet = iota
	perLayer
	info
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
	set        metricSet
}

// metricDefs lists, in print order, every metric a run reports;
// BENCHMARK.json names the end-to-end and per-layer ones.
var metricDefs = []metricDef{
	{"setup_s", "s", endToEnd},
	{"op_allocs", "count", endToEnd},
	{"read_alloc_kb", "KiB", endToEnd},
	{"heap_live_mb", "MB", endToEnd},

	{"op_alloc_kb", "KiB", perLayer},
	{"restart_s", "s", perLayer},
	{"op_cpu_ms", "ms", perLayer},
	{"read_cpu_us", "us", perLayer},
	{"rss_peak_mb", "MB", perLayer},
	{"setup_wall_s", "s", perLayer},
	{"restart_wall_s", "s", perLayer},
	{"read_p50_ms", "ms", perLayer},
	{"read_p99_ms", "ms", perLayer},
	{"read_sat_rps", "req/s", perLayer},
	{"op_p50_ms", "ms", perLayer},
	{"op_p90_ms", "ms", perLayer},
	{"nvdserve.read_server_mean_us", "us", perLayer},
	{"nvdserve.not_modified_ratio", "ratio", perLayer},
	{"nvdserve.read_wait_ms", "ms", perLayer},
	{"nvdserve.ingest_swap_ms", "ms", perLayer},
	{"nvdserve.wait_http_ms", "ms", perLayer},
	{"nvdserve.gc_cycles", "count", perLayer},
	{"cve.read_feed_ms", "ms", perLayer},
	{"cve.diff_cleaned_ms", "ms", perLayer},
	{"cve.apply_delta_ms", "ms", perLayer},
	{"nvdclean.clean_s", "s", perLayer},
	{"nvdclean.clean_delta_ms", "ms", perLayer},
	{"nvdclean.warm_start_ratio", "ratio", perLayer},
	{"nvdclean.apply_backport_ms", "ms", perLayer},
	{"nvdclean.store_checkpoint_ms", "ms", perLayer},
	{"nvdclean.restore_ms", "ms", perLayer},
	{"store.append_ms", "ms", perLayer},
	{"store.seal_ms", "ms", perLayer},
	{"store.commit_ms", "ms", perLayer},
	{"store.commits", "count", perLayer},
	{"store.write_amp", "ratio", perLayer},
	{"store.index_build_ms", "ms", perLayer},
	{"store.index_update_ms", "ms", perLayer},
	{"store.index_match_us", "us", perLayer},
	{"store.match_examined_per_returned", "ratio", perLayer},
	{"store.open_s", "s", perLayer},
	{"store.install_ms", "ms", perLayer},
	{"store.read_segment_us", "us", perLayer},
	{"respcache.entry_hit_ratio", "ratio", perLayer},
	{"respcache.query_hit_ratio", "ratio", perLayer},
	{"respcache.query_evictions", "count", perLayer},
	{"respcache.seed_ms", "ms", perLayer},
	{"replica.log_fetch_ms", "ms", perLayer},
	{"replica.bootstraps", "count", perLayer},
	{"replica.follower_allocs", "count", perLayer},
	{"loadgen.late_p50_ms", "ms", perLayer},
	{"loadgen.late_p99_ms", "ms", perLayer},
	{"loadgen.backlog_max", "count", perLayer},
	{"trace.coverage_ratio", "ratio", perLayer},

	{"ingest_ack_p50_ms", "ms", info},
	{"ingest_ack_p90_ms", "ms", info},
	{"replica_visible_p50_ms", "ms", info},
	{"replica_visible_p90_ms", "ms", info},
	{"fail_ratio", "ratio", info},
	{"nvdserve.ingest_swap_mean_ms", "ms", info},
	{"store.checkpoint_mean_ms", "ms", info},
	{"store.commit_retries", "count", info},
	{"replica.fetch_errors", "count", info},
	{"loadgen.reads", "count", info},
	{"loadgen.posts", "count", info},
	{"trace.op_p50_ms", "ms", info},
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of an -out results file, as compare reads them:
// the workload, seed and mode of a run, its check tally, and every
// metric it measured.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func main() {
	runtime.GOMAXPROCS(2)
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "nvdbench compare:", err)
			os.Exit(2)
		}
		return
	}
	ok, err := runMain(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nvdbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runMain parses the run flags, runs the workloads, prints each
// metric as "name value unit" and the result JSON last. It reports
// whether every check passed.
func runMain(args []string) (bool, error) {
	fs := flag.NewFlagSet("nvdbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: read-hot, read-cold, ingest, replicate or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 16, "measured seconds per workload (80% open loop, 20% closed loop)")
	trace := fs.Int("trace", 0, "1 also runs the traced in-process replay and prints the per-layer metrics")
	spans := fs.String("spans", "", "where -trace 1 writes its spans as JSON; -workload all adds -<workload> before .json (default: <repo>/.bench_build/spans-<workload>-<seed>.json)")
	out := fs.String("out", "", "directory to append this run's result to, as results.jsonl, for compare")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := workloadByName(*name); ok {
		ws = []workload{w}
	} else {
		return false, fmt.Errorf("unknown -workload %q (want read-hot, read-cold, ingest, replicate or all)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return false, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	repo, err := findRepo()
	if err != nil {
		return false, err
	}
	// Binaries, scratch data and default span files; git ignores it.
	build := filepath.Join(repo, ".bench_build")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildNvdserve(ctx, repo, filepath.Join(build, "bin"))
	if err != nil {
		return false, err
	}
	cfg := config{bin: bin, work: filepath.Join(build, "work"), seed: *seed, seconds: *seconds, trace: *trace == 1, log: os.Stderr}
	return runAll(ctx, cfg, ws, *spans, *out, build)
}

// runAll runs ws in order and prints their metrics; with one workload
// the final JSON line is that workload's result, with several it joins
// them under "<workload>/<metric>" names.
func runAll(ctx context.Context, cfg config, ws []workload, spans, out, build string) (bool, error) {
	total := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range ws {
		c := cfg
		switch {
		case spans == "":
			c.spans = filepath.Join(build, fmt.Sprintf("spans-%s-%d.json", w.name, cfg.seed))
		case len(ws) > 1:
			c.spans = strings.TrimSuffix(spans, ".json") + "-" + w.name + ".json"
		default:
			c.spans = spans
		}
		start := time.Now()
		o, err := runWorkload(ctx, c, w)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		set := endToEnd
		if cfg.trace {
			set = perLayer
		}
		r := o.result(set)
		fmt.Fprintf(cfg.log, "nvdbench: %s seed %d: %d ops, %d failed, %.1fs (%s)\n", w.name, cfg.seed, r.Attempted, r.Failed,
			time.Since(start).Seconds(), strings.Join(o.phases, ", "))
		for _, f := range o.failures {
			fmt.Fprintf(cfg.log, "nvdbench: %s: FAILED %s\n", w.name, f)
		}
		if len(ws) > 1 {
			fmt.Printf("# %s\n", w.name)
		}
		o.print(os.Stdout)
		if out != "" {
			rec := record{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, result: o.result(endToEnd, perLayer, info)}
			if err := appendRecord(out, rec); err != nil {
				return false, err
			}
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(ws) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return total.Correct, nil
}

// result assembles a run's result from the metrics in sets.
func (o *outcome) result(sets ...metricSet) result {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, d := range metricDefs {
		if v, ok := o.values[d.name]; ok && slices.Contains(sets, d.set) {
			r.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		}
	}
	return r
}

// print writes every measured metric as "name value unit", values with
// all their digits. Without the replay, the per-layer metrics that come
// from it are not measured and not printed.
func (o *outcome) print(w io.Writer) {
	for _, d := range metricDefs {
		if v, ok := o.values[d.name]; ok {
			fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		}
	}
}

func appendRecord(dir string, r record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// findRepo walks up from the working directory to the module root of
// nvdclean — the repository whose cmd/nvdserve the benchmark builds.
func findRepo() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module nvdclean\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no nvdclean repository at or above the working directory")
		}
		dir = parent
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
