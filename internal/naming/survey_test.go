package naming

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"nvdclean/internal/cpe"
	"nvdclean/internal/cve"
	"nvdclean/internal/gen"
	"nvdclean/internal/textnorm"
)

// TestSurveyCarryOverOracle drives seeded chains of random feed deltas
// through Survey.Next and requires the carried survey to equal the
// batch analyses of every resulting snapshot: the vendor analysis
// (pairs, CVE counts, product sets), the product analysis and both
// consolidation maps. The deltas add vendors and products, remove a
// vendor's last CVE, rename CPEs, and add typo, prefix, abbreviation
// and product-as-vendor names; each chain also shares one product
// among 25 and then 26 vendors, the shared-product blocking bound, and
// lets an alias overtake its canonical name. Each chain must take the
// carried-pairs path, the re-blocking path and the changed-vendor-map
// path at least once. On every odd step the carried survey also goes
// through WriteJSON and ReadSurveyJSON, as a checkpoint stores and
// restores it, must read back equal, and the chain continues from the
// copy read back, so derivations from a restored survey take every
// path too. -short runs a few seeds; the full tier hundreds.
func TestSurveyCarryOverOracle(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		runSurveyChain(t, seed)
	}
}

// surveyChain is one feed: its current snapshot and the delta of the
// step being built.
type surveyChain struct {
	rng     *rand.Rand
	snap    *cve.Snapshot
	seq     int    // sequence number of the last added CVE
	shared  string // the product the chain shares among many vendors
	delta   *cve.Delta
	touched map[string]bool
}

func runSurveyChain(t *testing.T, seed int64) {
	t.Helper()
	cfg := gen.TinyConfig()
	cfg.Seed = seed
	snap, _, _, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := &surveyChain{rng: rand.New(rand.NewSource(seed)), snap: snap}
	c.shared = "shared_" + c.word()

	sv := NewSurvey(snap)
	va := sv.AnalyzeVendors(1)
	vm := va.Consolidate(HeuristicJudge{})
	sv.AnalyzeProducts(vm, 1)

	var carried, reblocked, remapped int
	for step := 0; step < 12; step++ {
		c.delta = &cve.Delta{CapturedAt: c.snap.CapturedAt}
		c.touched = make(map[string]bool)
		switch step {
		case 0:
			c.editDescription()
		case 1:
			c.copyEntry()
		case 2:
			c.shareProduct(25)
		case 3:
			c.shareProduct(26)
		case 4:
			c.overtake(vm)
		default:
			for n := 1 + c.rng.Intn(3); n > 0; n-- {
				c.randomOp()
			}
		}
		next := c.snap.ApplyDelta(c.delta)
		var before, after []*cve.Entry
		for _, e := range c.snap.Entries {
			if c.touched[e.ID] {
				before = append(before, e)
			}
		}
		for _, e := range next.Entries {
			if c.touched[e.ID] {
				after = append(after, e)
			}
		}
		label := fmt.Sprintf("seed %d step %d", seed, step)

		// The derivation must leave the previous survey as it was.
		prevVendors, prevPairs, prevProducts := maps.Clone(sv.vendors.CVECount), maps.Clone(sv.pairs), maps.Clone(sv.products.CVECount)
		workers := 1 + c.rng.Intn(4)
		nsv := sv.Next(next, before, after)
		gotVA := nsv.AnalyzeVendors(workers)
		gotVM := gotVA.Consolidate(HeuristicJudge{})
		gotPA := nsv.AnalyzeProducts(gotVM, workers)
		gotPM := gotPA.Consolidate(HeuristicProductJudge{})
		if !maps.Equal(sv.vendors.CVECount, prevVendors) || !maps.Equal(sv.pairs, prevPairs) ||
			!maps.Equal(sv.products.CVECount, prevProducts) {
			t.Fatalf("%s: deriving a survey modified its predecessor's tallies", label)
		}

		wantVA := AnalyzeVendorsN(next, 1)
		wantVM := wantVA.Consolidate(HeuristicJudge{})
		renamed := next.Clone()
		wantVM.Apply(renamed)
		wantPA := AnalyzeProductsN(renamed, 1)
		wantPM := wantPA.Consolidate(HeuristicProductJudge{})
		if !reflect.DeepEqual(gotVA.Pairs, wantVA.Pairs) {
			t.Fatalf("%s: carried vendor pairs differ from the batch analysis", label)
		}
		if !maps.Equal(gotVA.CVECount, wantVA.CVECount) {
			t.Fatalf("%s: carried vendor CVE counts differ from the batch analysis", label)
		}
		if !reflect.DeepEqual(gotVA.Products, wantVA.Products) {
			t.Fatalf("%s: carried vendor product sets differ from the batch analysis", label)
		}
		if !maps.Equal(gotVM.Entries(), wantVM.Entries()) {
			t.Fatalf("%s: carried vendor map differs from the batch one", label)
		}
		if !reflect.DeepEqual(gotPA.Pairs, wantPA.Pairs) {
			t.Fatalf("%s: carried product pairs differ from the batch analysis", label)
		}
		if !maps.Equal(gotPA.CVECount, wantPA.CVECount) {
			t.Fatalf("%s: carried product CVE counts differ from the batch analysis", label)
		}
		if !maps.Equal(gotPM.Entries(), wantPM.Entries()) {
			t.Fatalf("%s: carried product map differs from the batch one", label)
		}

		if len(gotVA.Pairs) > 0 && len(va.Pairs) > 0 && &gotVA.Pairs[0] == &va.Pairs[0] {
			carried++
		} else {
			reblocked++
		}
		if !maps.Equal(gotVM.forward, vm.forward) {
			remapped++
		}
		if step%2 == 1 {
			var buf bytes.Buffer
			if err := nsv.WriteJSON(&buf); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			back, err := ReadSurveyJSON(&buf, next)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(back, nsv) {
				t.Fatalf("%s: survey read back differs from the one written", label)
			}
			nsv, gotVA = back, back.vendors
		}
		sv, va, vm, c.snap = nsv, gotVA, gotVM, next
	}
	if carried == 0 || reblocked == 0 || remapped == 0 {
		t.Errorf("seed %d: paths taken: %d carried, %d re-blocked, %d with a new vendor map; want each at least once",
			seed, carried, reblocked, remapped)
	}
}

func (c *surveyChain) randomOp() {
	ops := []func(){
		c.newVendor, c.newProduct, c.removeLast, c.typoVendor, c.prefixVendor,
		c.abbrevVendor, c.productAsVendor, c.productVariant, c.copyEntry,
		c.editDescription, c.renameCPE, c.removeEntry,
	}
	ops[c.rng.Intn(len(ops))]()
}

func name(vendor, product string) cpe.Name {
	return cpe.NewName(cpe.PartApplication, vendor, product, "1.0")
}

// word returns a fresh-looking lowercase name of four to eight letters.
func (c *surveyChain) word() string {
	b := make([]byte, 4+c.rng.Intn(5))
	for i := range b {
		b[i] = byte('a' + c.rng.Intn(26))
	}
	return string(b)
}

func (c *surveyChain) add(names ...cpe.Name) {
	c.seq++
	e := &cve.Entry{
		ID:           cve.FormatID(2099, c.seq),
		Descriptions: []cve.Description{{Source: "test", Value: "added"}},
		CPEs:         names,
	}
	c.delta.Added = append(c.delta.Added, e)
	c.touched[e.ID] = true
}

// entry returns an entry with CPE names the step has not touched yet,
// or nil.
func (c *surveyChain) entry() *cve.Entry {
	for range 50 {
		e := c.snap.Entries[c.rng.Intn(len(c.snap.Entries))]
		if !c.touched[e.ID] && len(e.CPEs) > 0 {
			return e
		}
	}
	return nil
}

func (c *surveyChain) modify(e *cve.Entry, edit func(*cve.Entry)) {
	m := e.Clone()
	edit(m)
	c.delta.Modified = append(c.delta.Modified, m)
	c.touched[e.ID] = true
}

func (c *surveyChain) remove(e *cve.Entry) {
	c.delta.Removed = append(c.delta.Removed, e.ID)
	c.touched[e.ID] = true
}

func (c *surveyChain) vendors() []string {
	return slices.Sorted(maps.Keys(c.snap.VendorCVECount()))
}

func (c *surveyChain) vendor() string {
	vs := c.vendors()
	return vs[c.rng.Intn(len(vs))]
}

func (c *surveyChain) product(vendor string) string {
	ps := slices.Sorted(maps.Keys(c.snap.VendorProducts()[vendor]))
	return ps[c.rng.Intn(len(ps))]
}

func (c *surveyChain) newVendor() {
	v := c.word()
	if c.rng.Intn(2) == 0 {
		v += "_" + c.word() + "_" + c.word()
	}
	c.add(name(v, c.word()))
}

func (c *surveyChain) newProduct() {
	c.add(name(c.vendor(), c.word()))
}

// removeLast removes the only CVE of a vendor that has one.
func (c *surveyChain) removeLast() {
	counts := c.snap.VendorCVECount()
	for _, v := range c.vendors() {
		if counts[v] != 1 {
			continue
		}
		for _, e := range c.snap.Entries {
			if !c.touched[e.ID] && slices.Contains(e.Vendors(), v) {
				c.remove(e)
				return
			}
		}
	}
}

func (c *surveyChain) removeEntry() {
	if e := c.entry(); e != nil {
		c.remove(e)
	}
}

// typoVendor adds a vendor one deletion or substitution away from an
// existing one, listing one of its products.
func (c *surveyChain) typoVendor() {
	v := c.vendor()
	if len(v) < 5 {
		return
	}
	i := c.rng.Intn(len(v))
	typo := v[:i] + v[i+1:]
	if c.rng.Intn(2) == 0 {
		typo = v[:i] + string(rune('a'+c.rng.Intn(26))) + v[i+1:]
	}
	c.add(name(typo, c.product(v)))
}

func (c *surveyChain) prefixVendor() {
	v := c.vendor()
	c.add(name(v+"_"+c.word(), c.product(v)))
}

// abbrevVendor adds the initials of a multi-token vendor as a vendor,
// or a multi-token expansion of a short existing vendor.
func (c *surveyChain) abbrevVendor() {
	v := c.vendor()
	if ab := textnorm.Abbreviation(v); len(ab) >= 3 && c.rng.Intn(2) == 0 {
		c.add(name(ab, c.word()))
		return
	}
	if len(v) < 3 || len(v) > 6 || strings.ContainsAny(v, "_-. ") {
		return
	}
	tokens := make([]string, len(v))
	for i := range v {
		tokens[i] = v[i:i+1] + c.word()
	}
	c.add(name(strings.Join(tokens, "_"), c.product(v)))
}

func (c *surveyChain) productAsVendor() {
	c.add(name(c.product(c.vendor()), c.word()))
}

// productVariant adds a typo, separator or abbreviation variant of a
// vendor's product under that vendor.
func (c *surveyChain) productVariant() {
	v := c.vendor()
	p := c.product(v)
	switch c.rng.Intn(3) {
	case 0:
		if len(p) < 5 {
			return
		}
		i := c.rng.Intn(len(p))
		p = p[:i] + string(rune('a'+c.rng.Intn(26))) + p[i+1:]
	case 1:
		p = strings.ReplaceAll(p, "_", "-") + "_suite"
	case 2:
		if ab := textnorm.Abbreviation(p); len(ab) >= 2 {
			p = ab
		} else {
			p += "_" + c.word()
		}
	}
	c.add(name(v, p))
}

func (c *surveyChain) copyEntry() {
	if e := c.entry(); e != nil {
		c.add(slices.Clone(e.CPEs)...)
	}
}

func (c *surveyChain) editDescription() {
	if e := c.entry(); e != nil {
		c.modify(e, func(m *cve.Entry) {
			m.Descriptions = append(m.Descriptions, cve.Description{Source: "test", Value: "edited"})
		})
	}
}

// renameCPE moves one CPE name of an entry to another vendor, new or
// existing, or to a new product.
func (c *surveyChain) renameCPE() {
	e := c.entry()
	if e == nil {
		return
	}
	c.modify(e, func(m *cve.Entry) {
		i := c.rng.Intn(len(m.CPEs))
		switch c.rng.Intn(3) {
		case 0:
			m.CPEs[i].Vendor = c.vendor()
		case 1:
			m.CPEs[i].Vendor = c.word()
		case 2:
			m.CPEs[i].Product = c.word()
		}
	})
}

// shareProduct adds CVEs until n vendors list the chain's shared
// product.
func (c *surveyChain) shareProduct(n int) {
	var others []string
	sharers := 0
	for _, v := range c.vendors() {
		if _, ok := c.snap.VendorProducts()[v][c.shared]; ok {
			sharers++
		} else {
			others = append(others, v)
		}
	}
	c.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	for _, v := range others[:n-sharers] {
		c.add(name(v, c.shared))
	}
}

// overtake adds CVEs for one alias of vm until it has more CVEs than
// every other name of its group, flipping the group's canonical name.
func (c *surveyChain) overtake(vm *Map) {
	aliases := slices.Sorted(maps.Keys(vm.forward))
	if len(aliases) == 0 {
		return
	}
	alias := aliases[c.rng.Intn(len(aliases))]
	canonical := vm.forward[alias]
	counts := c.snap.VendorCVECount()
	most := counts[canonical]
	for a, to := range vm.forward {
		if to == canonical {
			most = max(most, counts[a])
		}
	}
	p := c.product(alias)
	for range most - counts[alias] + 1 {
		c.add(name(alias, p))
	}
}
