// Command nvdreport regenerates every table and figure of the paper's
// evaluation from a synthetic snapshot: it generates the data, runs the
// full cleaning pipeline, and prints each experiment.
//
// Usage:
//
//	nvdreport                         # all experiments, small scale
//	nvdreport -scale paper -epochs 100
//	nvdreport -only table5,table7     # subset
//	nvdreport -ablations              # design-choice sweeps too
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nvdclean/internal/experiments"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nvdreport:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale       = flag.String("scale", "small", "snapshot scale: paper, small, tiny")
		seed        = flag.Int64("seed", 1, "generator seed")
		epochs      = flag.Int("epochs", 40, "training epochs for the deep models")
		compact     = flag.Bool("compact", true, "use compact (fast) neural models")
		lrOnly      = flag.Bool("lr-only", false, "train only the linear model")
		only        = flag.String("only", "", "comma-separated experiment ids to run")
		ablations   = flag.Bool("ablations", false, "also run the design-choice ablations")
		timeout     = flag.Duration("timeout", time.Hour, "overall deadline")
		concurrency = flag.Int("concurrency", 0, "worker bound for every stage (0: GOMAXPROCS)")
	)
	flag.Parse()

	cfg, err := gen.ScaleConfig(*scale)
	if err != nil {
		return err
	}
	cfg.Seed = *seed

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	opts := experiments.Options{
		Scale:       cfg,
		ModelConfig: predict.ModelConfig{Epochs: *epochs, Compact: *compact, Seed: *seed},
		Concurrency: *concurrency,
	}
	if *lrOnly {
		opts.Models = []predict.ModelKind{predict.ModelLR}
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "building suite (%s scale, %d CVEs)...\n", *scale, cfg.NumCVEs)
	suite, err := experiments.NewSuite(ctx, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipeline complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			wanted[id] = true
		}
	}
	if len(wanted) == 0 && !*ablations {
		// Full run: render every experiment in parallel, print in
		// paper order.
		for _, r := range suite.RenderAll() {
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			fmt.Printf("=== %s — %s ===\n%s\n", r.ID, r.Title, r.Output)
		}
		return nil
	}
	exps := suite.All()
	if *ablations {
		exps = append(exps, suite.Ablations(ctx)...)
	}
	ran := 0
	for _, exp := range exps {
		if len(wanted) > 0 && !wanted[exp.ID] {
			continue
		}
		out, err := exp.Render()
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Printf("=== %s — %s ===\n%s\n", exp.ID, exp.Title, out)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", *only)
	}
	return nil
}
