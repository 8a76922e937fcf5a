// Command nvdgen synthesizes an NVD snapshot with the defects the paper
// studies and writes it as an NVD JSON 1.1 data feed, plus an optional
// ground-truth sidecar for scoring cleaning tools.
//
// Usage:
//
//	nvdgen -scale small -out nvd.json -truth truth.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nvdgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scale     = flag.String("scale", "small", "snapshot scale: paper (107.2K CVEs), small (3K), tiny (400)")
		seed      = flag.Int64("seed", 1, "generator seed")
		out       = flag.String("out", "nvd.json", "output feed path ('-' for stdout)")
		truthPath = flag.String("truth", "", "optional ground-truth sidecar path")
	)
	flag.Parse()

	cfg, err := gen.ScaleConfig(*scale)
	if err != nil {
		return err
	}
	cfg.Seed = *seed

	start := time.Now()
	snap, truth, _, err := gen.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d CVEs in %v\n", snap.Len(), time.Since(start).Round(time.Millisecond))

	if err := writeFeed(*out, snap); err != nil {
		return err
	}
	if *truthPath != "" {
		if err := writeTruth(*truthPath, truth); err != nil {
			return err
		}
	}
	return nil
}

func writeFeed(path string, snap *cve.Snapshot) error {
	if path == "-" {
		return cve.WriteFeed(os.Stdout, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := cve.WriteFeed(f, snap); err != nil {
		return err
	}
	return f.Close()
}

// truthJSON is the sidecar layout: everything needed to score a
// cleaning run.
type truthJSON struct {
	Disclosure       map[string]string    `json:"disclosure_dates"`
	TrueCWE          map[string]string    `json:"true_cwe"`
	TrueV3           map[string]string    `json:"true_v3_vector"`
	VendorCanonical  map[string]string    `json:"vendor_canonical"`
	ProductCanonical map[string][2]string `json:"product_canonical"`
}

func writeTruth(path string, truth *gen.Truth) error {
	t := truthJSON{
		Disclosure:       make(map[string]string, len(truth.Disclosure)),
		TrueCWE:          make(map[string]string, len(truth.TrueCWE)),
		TrueV3:           make(map[string]string, len(truth.TrueV3)),
		VendorCanonical:  truth.VendorCanonical,
		ProductCanonical: make(map[string][2]string, len(truth.ProductCanonical)),
	}
	for id, d := range truth.Disclosure {
		t.Disclosure[id] = d.Format("2006-01-02")
	}
	for id, c := range truth.TrueCWE {
		t.TrueCWE[id] = c.String()
	}
	for id, v := range truth.TrueV3 {
		t.TrueV3[id] = v.String()
	}
	for k, canonical := range truth.ProductCanonical {
		t.ProductCanonical[k[0]+"/"+k[1]] = [2]string{k[0], canonical}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&t); err != nil {
		return err
	}
	return f.Close()
}
