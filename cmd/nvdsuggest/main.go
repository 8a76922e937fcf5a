// Command nvdsuggest is the §6 reporter-assistance interface: it builds
// (or loads) a consistent name database and answers vendor/product name
// queries with ranked canonical suggestions.
//
// Usage:
//
//	nvdsuggest -generate small microsft              # vendor query
//	nvdsuggest -generate small -vendor microsoft ie  # product query
//	nvdsuggest -in nvd.json -map vendor-map.json oracel
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/naming"
	"nvdclean/internal/suggest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nvdsuggest:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "NVD JSON 1.1 feed to index")
		generate = flag.String("generate", "", "or generate a synthetic snapshot: paper, small, tiny")
		mapPath  = flag.String("map", "", "optional vendor consolidation map (JSON) for known-alias hits")
		vendor   = flag.String("vendor", "", "scope the query to this vendor's products")
		topK     = flag.Int("k", 5, "number of suggestions")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("exactly one name query is required")
	}
	query := flag.Arg(0)

	var (
		snap *nvdclean.Snapshot
		err  error
	)
	switch {
	case *in != "":
		f, ferr := os.Open(*in)
		if ferr != nil {
			return ferr
		}
		snap, err = nvdclean.LoadFeed(f)
		f.Close()
		if err != nil {
			return err
		}
	case *generate != "":
		cfg, err := gen.ScaleConfig(*generate)
		if err != nil {
			return err
		}
		snap, _, err = nvdclean.GenerateSnapshot(cfg)
		if err != nil {
			return err
		}
		// Run the naming pipeline so suggestions come from the
		// consistent database.
		res, cerr := nvdclean.Clean(context.Background(), snap, nvdclean.Options{SkipSeverity: true})
		if cerr != nil {
			return cerr
		}
		advisor := res.Advisor()
		return printSuggestions(advisor, *vendor, query, *topK)
	default:
		return fmt.Errorf("either -in or -generate is required")
	}

	var vmap *naming.Map
	if *mapPath != "" {
		f, ferr := os.Open(*mapPath)
		if ferr != nil {
			return ferr
		}
		vmap, err = naming.ReadMapJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	advisor := suggest.NewAdvisor(snap, vmap, nil)
	return printSuggestions(advisor, *vendor, query, *topK)
}

func printSuggestions(advisor *suggest.Advisor, vendor, query string, k int) error {
	var sugs []suggest.Suggestion
	if vendor != "" {
		sugs = advisor.SuggestProduct(vendor, query, k)
	} else {
		sugs = advisor.SuggestVendor(query, k)
	}
	if len(sugs) == 0 {
		fmt.Printf("no suggestions for %q — possibly a new name\n", query)
		return nil
	}
	for _, s := range sugs {
		fmt.Printf("%-30s %.2f  %-14s %d CVEs\n", s.Name, s.Score, s.Reason, s.CVEs)
	}
	return nil
}
