// Command nvdclean runs the full cleaning pipeline over an NVD
// snapshot — either a real NVD JSON 1.1 feed or a freshly generated
// synthetic one — and writes the rectified feed plus a correction
// summary. Each v2-only CVE the severity engine scored carries its
// predicted v3 score in the feed under the backportedV3 extension key;
// a backportedV3 key in the input is not carried over.
//
// Usage:
//
//	nvdclean -in nvd.json -out cleaned.json            # real feed, live web
//	nvdclean -generate small -out cleaned.json         # synthetic, simulated web
//	nvdclean -in nvd.json -offline -out cleaned.json   # skip the crawl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"nvdclean"
	"nvdclean/internal/gen"
	"nvdclean/internal/predict"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "nvdclean:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "input NVD JSON 1.1 feed (mutually exclusive with -generate)")
		generate = flag.String("generate", "", "generate a synthetic snapshot: paper, small, or tiny")
		out      = flag.String("out", "cleaned.json", "output feed path ('-' for stdout)")
		scores   = flag.String("scores", "", "optional path for predicted v3 scores (JSON)")
		vmapOut  = flag.String("vendor-map", "", "optional path for the vendor consolidation map (JSON)")
		pmapOut  = flag.String("product-map", "", "optional path for the product consolidation map (JSON)")
		engOut   = flag.String("engine", "", "optional path for the trained severity engine (JSON)")
		offline  = flag.Bool("offline", false, "skip disclosure-date crawling")
		compact  = flag.Bool("compact", false, "use compact (fast) neural models")
		epochs   = flag.Int("epochs", 100, "training epochs for the deep models")
		lrOnly   = flag.Bool("lr-only", false, "train only the linear model (fastest)")
		seed     = flag.Int64("seed", 1, "pipeline seed")
		timeout  = flag.Duration("timeout", 30*time.Minute, "overall deadline")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var (
		snap  *nvdclean.Snapshot
		truth *nvdclean.Truth
		err   error
	)
	switch {
	case *in != "" && *generate != "":
		return fmt.Errorf("-in and -generate are mutually exclusive")
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
		var cfg gen.Config
		switch *generate {
		case "paper":
			cfg = gen.DefaultConfig()
		case "small":
			cfg = gen.SmallConfig()
		case "tiny":
			cfg = gen.TinyConfig()
		default:
			return fmt.Errorf("unknown scale %q", *generate)
		}
		cfg.Seed = *seed
		snap, truth, err = nvdclean.GenerateSnapshot(cfg)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("either -in or -generate is required")
	}
	fmt.Fprintf(os.Stderr, "loaded %d CVEs\n", snap.Len())

	opts := nvdclean.Options{
		Seed:        *seed,
		ModelConfig: predict.ModelConfig{Epochs: *epochs, Compact: *compact, Seed: *seed},
	}
	if *lrOnly {
		opts.Models = []predict.ModelKind{predict.ModelLR}
	}
	switch {
	case *offline:
		// no transport: skip the crawl
	case truth != nil:
		opts.Transport = nvdclean.NewWebCorpus(snap, truth.Disclosure).Transport()
	default:
		opts.Transport = http.DefaultTransport
	}

	start := time.Now()
	res, err := nvdclean.Clean(ctx, snap, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cleaned in %v\n", time.Since(start).Round(time.Millisecond))
	printSummary(res)

	if err := writeFeed(*out, res.Cleaned); err != nil {
		return err
	}
	if *scores != "" && res.Backport != nil {
		if err := writeScores(*scores, res); err != nil {
			return err
		}
	}
	if *vmapOut != "" {
		if err := writeTo(*vmapOut, res.VendorMap.WriteJSON); err != nil {
			return err
		}
	}
	if *pmapOut != "" {
		if err := writeTo(*pmapOut, res.ProductMap.WriteJSON); err != nil {
			return err
		}
	}
	if *engOut != "" && res.Engine != nil {
		if err := writeTo(*engOut, res.Engine.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}

// writeTo streams a serializer to a file.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

func printSummary(res *nvdclean.Result) {
	fmt.Fprintf(os.Stderr, "  dates estimated:       %d (crawl: %d fetched, %d extracted)\n",
		len(res.EstimatedDisclosure), res.CrawlStats.Fetched, res.CrawlStats.Extracted)
	fmt.Fprintf(os.Stderr, "  vendor names remapped:  %d (affecting %d CVEs)\n",
		res.VendorMap.Len(), len(res.VendorChanged))
	fmt.Fprintf(os.Stderr, "  product names remapped: %d (affecting %d CVEs)\n",
		res.ProductMap.Len(), len(res.ProductChanged))
	fmt.Fprintf(os.Stderr, "  CWE fields corrected:   %d\n", res.CWECorrection.Corrected)
	if res.Backport != nil {
		fmt.Fprintf(os.Stderr, "  v3 scores backported:   %d (model: %s, accuracy %.2f%%)\n",
			len(res.Backport.Scores), res.Engine.Best(),
			100*res.Engine.Evaluation(res.Engine.Best()).Accuracy)
	}
}

func writeFeed(path string, snap *nvdclean.Snapshot) error {
	if path == "-" {
		return nvdclean.WriteFeed(os.Stdout, snap)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := nvdclean.WriteFeed(f, snap); err != nil {
		return err
	}
	return f.Close()
}

func writeScores(path string, res *nvdclean.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res.Backport.Scores); err != nil {
		return err
	}
	return f.Close()
}
