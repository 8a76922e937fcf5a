// Severity backporting (§4.3): train the four-model zoo on dual-labeled
// CVEs, compare them (Tables 5 and 7), and use the best model to assign
// modern v3 severity to historical v2-only vulnerabilities — including
// the two real CVEs the paper highlights as still being exploited years
// after disclosure.
package main

import (
	"fmt"
	"log"
	"os"

	"nvdclean"
	"nvdclean/internal/cvss"
	"nvdclean/internal/cwe"
	"nvdclean/internal/predict"
	"nvdclean/internal/report"
)

func main() {
	log.SetFlags(0)

	snap, _, err := nvdclean.GenerateSnapshot(nvdclean.SmallScale())
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth: the CVEs carrying both CVSS versions.
	ds, err := predict.BuildDataset(snap, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dual-labeled CVEs: %d train / %d test\n\n", len(ds.Train), len(ds.Test))

	eng, err := predict.Train(ds, predict.AllModels(), predict.ModelConfig{
		Epochs: 30, Compact: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := report.Table5(os.Stdout, eng.Evaluations()); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := report.Table7(os.Stdout, eng.Evaluations()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nselected model: %s\n\n", eng.Best())

	// The paper's §4.3 motivating examples: CVE-2011-0997 (DHCP client,
	// v2 Medium) and CVE-2004-0113 (mod_ssl, v2 Medium) were both still
	// exploited years later and "are more properly categorized as
	// critical severity under our model".
	cases := []struct {
		id     string
		vector string
		typ    cwe.ID
	}{
		{"CVE-2011-0997 (DHCP client)", "AV:N/AC:M/Au:N/C:P/I:P/A:P", cwe.ID(20)},
		{"CVE-2004-0113 (mod_ssl)", "AV:N/AC:L/Au:N/C:N/I:N/A:P", cwe.ID(119)},
		{"CVE-2014-0160 (Heartbleed)", "AV:N/AC:L/Au:N/C:P/I:N/A:N", cwe.ID(119)},
	}
	fmt.Println("backporting v3 severity to historical v2-only CVEs:")
	for _, c := range cases {
		v2, err := cvss.ParseV2(c.vector)
		if err != nil {
			log.Fatal(err)
		}
		score, err := eng.Predict(v2, c.typ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-28s v2 %.1f (%s)  ->  predicted v3 %.1f (%s)\n",
			c.id, v2.BaseScore(), v2.Severity(),
			score, cvss.SeverityV3(score))
	}

	// Backport across the whole snapshot and show the Table 9 shift.
	b, err := eng.BackportAllN(snap, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbackported %d v2-only CVEs\n", len(b.Scores))
	dist := make(map[cvss.Severity]int)
	for _, s := range b.Scores {
		dist[cvss.SeverityV3(s)]++
	}
	for _, sev := range []cvss.Severity{cvss.SeverityLow, cvss.SeverityMedium, cvss.SeverityHigh, cvss.SeverityCritical} {
		fmt.Printf("  predicted %-8s %5d (%.1f%%)\n", sev, dist[sev],
			100*float64(dist[sev])/float64(len(b.Scores)))
	}
}
