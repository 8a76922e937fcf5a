package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Vendor is one true vendor of the synthetic software universe, carrying
// its canonical name, any injected inconsistent aliases, and a product
// catalog.
type Vendor struct {
	// Name is the canonical vendor name (by construction the name with
	// the most CVEs, matching the paper's consolidation rule).
	Name string
	// Aliases are injected inconsistent spellings, each tagged with the
	// Table 2 pattern that produced it.
	Aliases []VendorAlias
	// Products is the vendor's catalog.
	Products []*Product
	// CVEWeight is the relative share of CVEs attributed to this
	// vendor.
	CVEWeight float64
}

// VendorAlias is an inconsistent vendor name with its generation
// pattern.
type VendorAlias struct {
	Name string
	// Pattern is one of "tokens", "misspell", "prefix", "abbrev",
	// "product-as-vendor" — the Table 2 categories.
	Pattern string
}

// Product is one product with optional inconsistent aliases.
type Product struct {
	// Name is the canonical product name.
	Name string
	// Aliases are injected inconsistent spellings ("separator",
	// "abbrev", "typo" patterns of §4.2).
	Aliases []string
}

// Universe is the complete software-naming world of a synthetic
// snapshot.
type Universe struct {
	Vendors []*Vendor

	// nameTaken guards global vendor-name uniqueness (canonical and
	// alias names share one namespace, as in the NVD's CPE dictionary).
	nameTaken map[string]bool
	// prefixTaken holds every proper prefix of an accepted name, so
	// that distinct vendors never accidentally form prefix pairs —
	// in the real NVD such pairs almost always are the same vendor,
	// which is exactly why the paper's Pref heuristic confirms at >90%.
	prefixTaken map[string]bool
	// delSig holds single-character-deletion signatures of accepted
	// names, so distinct vendors are never within edit distance 1 of
	// each other (only injected misspelling aliases are).
	delSig map[string]bool
}

// registerName indexes an accepted vendor name (canonical or alias).
func (u *Universe) registerName(name string) {
	u.nameTaken[name] = true
	for i := 1; i < len(name); i++ {
		u.prefixTaken[name[:i]] = true
	}
	u.delSig[name] = true
	for i := 0; i < len(name); i++ {
		u.delSig[name[:i]+name[i+1:]] = true
	}
}

// nameCollides reports whether a prospective vendor name would
// accidentally pair with an existing one (exact, prefix either way, or
// edit distance ≤ 1).
func (u *Universe) nameCollides(name string) bool {
	if u.nameTaken[name] || u.prefixTaken[name] {
		return true
	}
	for i := 1; i < len(name); i++ {
		if u.nameTaken[name[:i]] {
			return true
		}
	}
	if u.delSig[name] {
		return true
	}
	for i := 0; i < len(name); i++ {
		if u.delSig[name[:i]+name[i+1:]] {
			return true
		}
	}
	return false
}

// headVendor seeds the well-known vendors of Table 11 with their
// approximate CVE and product shares so the top-10 analyses reproduce.
type headVendor struct {
	name         string
	cveShare     float64 // fraction of all CVEs
	productShare float64 // fraction of all products
}

var headVendors = []headVendor{
	{"microsoft", 0.0780, 0.0107},
	{"oracle", 0.0500, 0.0121},
	{"apple", 0.0426, 0.0050},
	{"ibm", 0.0388, 0.0203},
	{"google", 0.0367, 0.0040},
	{"cisco", 0.0343, 0.0400},
	{"adobe", 0.0268, 0.0045},
	{"linux", 0.0212, 0.0008},
	{"debian", 0.0212, 0.0010},
	{"redhat", 0.0201, 0.0065},
	{"hp", 0.0150, 0.0673},
	{"axis", 0.0030, 0.0177},
	{"intel", 0.0085, 0.0158},
	{"huawei", 0.0080, 0.0154},
	{"lenovo", 0.0045, 0.0127},
	{"siemens", 0.0060, 0.0112},
	{"apache", 0.0120, 0.0030},
	{"mozilla", 0.0110, 0.0012},
	{"wordpress", 0.0080, 0.0008},
	{"openssl_project", 0.0020, 0.0002},
}

// Name-building material for the synthetic long tail.
var (
	nameSyllables = []string{
		"ac", "al", "an", "ar", "bel", "bit", "bro", "cam", "cen", "cor",
		"dat", "del", "dev", "dig", "dor", "el", "en", "ex", "fab", "fen",
		"gal", "gen", "gra", "hel", "hex", "in", "jan", "kel", "kin", "lan",
		"lex", "lin", "lom", "mar", "med", "mon", "nav", "neo", "nor", "on",
		"or", "pan", "pel", "pix", "plex", "quan", "ril", "ros", "san", "sel",
		"sol", "syn", "tal", "tec", "tel", "tor", "tri", "ul", "van", "vel",
		"ver", "vim", "vor", "wel", "xan", "yel", "zan", "zen", "zor",
	}
	vendorSuffixes = []string{
		"soft", "tech", "sys", "ware", "net", "sec", "labs", "works",
		"media", "data", "core", "logic", "byte", "comm", "micro", "dyn",
	}
	productWords = []string{
		"server", "manager", "client", "engine", "suite", "studio",
		"portal", "gateway", "console", "agent", "monitor", "scanner",
		"editor", "viewer", "player", "builder", "center", "desk",
		"board", "mail", "chat", "forum", "wiki", "shop", "cart", "blog",
		"cms", "billing", "erp", "vpn", "proxy", "cache", "backup", "sync",
	}
	productQualifiers = []string{
		"enterprise", "pro", "lite", "secure", "smart", "open", "easy",
		"fast", "multi", "web", "net", "mobile", "cloud", "remote",
		"virtual", "micro", "hyper", "auto", "meta", "ultra",
	}
	// productSyllables is a subset of nameSyllables with pairwise edit
	// distance >= 2, so syllabic product components under one vendor
	// never collide at distance 1 (real catalogs' distinct products
	// differ by more than a typo; only injected aliases are that close).
	productSyllables = []string{
		"bel", "cam", "dor", "fen", "gra", "hex", "jan", "kin", "lom",
		"mar", "nav", "pix", "quan", "ros", "syn", "tal", "vim",
	}
	// genericProducts are product names deliberately shared by several
	// unrelated vendors, creating the false-candidate #MP pairs that
	// Table 2 counts as Possible-but-unconfirmed.
	genericProducts = []string{
		"antivirus", "firewall", "toolbar", "firmware", "dashboard",
		"installer", "updater", "launcher",
	}
)

// NewUniverse builds the vendor/product world for cfg, injecting alias
// inconsistencies at the configured rates.
func NewUniverse(cfg Config, rng *rand.Rand) *Universe {
	u := &Universe{
		nameTaken:   make(map[string]bool),
		prefixTaken: make(map[string]bool),
		delSig:      make(map[string]bool),
	}

	totalProducts := int(2.45 * float64(cfg.NumVendors))
	if totalProducts < 4 {
		totalProducts = 4
	}

	// Head vendors first.
	var headCVE, headProd float64
	for _, h := range headVendors {
		headCVE += h.cveShare
		headProd += h.productShare
	}
	for _, h := range headVendors {
		v := &Vendor{Name: h.name, CVEWeight: h.cveShare}
		u.registerName(h.name)
		nProducts := int(h.productShare * float64(totalProducts))
		if nProducts < 1 {
			nProducts = 1
		}
		for i := 0; i < nProducts; i++ {
			v.Products = append(v.Products, &Product{Name: u.productName(rng, v, i)})
		}
		u.Vendors = append(u.Vendors, v)
	}

	// Long tail.
	tail := cfg.NumVendors - len(headVendors)
	if tail < 0 {
		tail = 0
	}
	tailProducts := totalProducts - int(headProd*float64(totalProducts))
	// Zipf-ish tail weights so CVE counts have the long-tail shape.
	var tailWeight float64
	tailWeights := make([]float64, tail)
	for i := range tailWeights {
		tailWeights[i] = 1 / float64(i+4)
		tailWeight += tailWeights[i]
	}
	remainingCVEShare := 1 - headCVE
	for i := 0; i < tail; i++ {
		v := &Vendor{
			Name:      u.freshVendorName(rng),
			CVEWeight: remainingCVEShare * tailWeights[i] / tailWeight,
		}
		n := 1 + rng.Intn(cfg.MaxProductsPerVendor)
		if used := tailProducts - n; used < 0 {
			n = 1
		} else {
			tailProducts = used
		}
		for j := 0; j < n; j++ {
			name := u.productName(rng, v, j)
			// A slice of the tail shares generic product names,
			// producing false #MP candidate pairs.
			if rng.Float64() < 0.05 {
				name = genericProducts[rng.Intn(len(genericProducts))]
			}
			v.Products = append(v.Products, &Product{Name: name})
		}
		u.Vendors = append(u.Vendors, v)
	}

	u.injectVendorAliases(cfg, rng)
	u.injectProductAliases(cfg, rng)
	return u
}

// freshVendorName synthesizes an unused vendor name.
func (u *Universe) freshVendorName(rng *rand.Rand) string {
	for {
		var b strings.Builder
		n := 2 + rng.Intn(2)
		for i := 0; i < n; i++ {
			b.WriteString(nameSyllables[rng.Intn(len(nameSyllables))])
		}
		if rng.Float64() < 0.5 {
			b.WriteString(vendorSuffixes[rng.Intn(len(vendorSuffixes))])
		}
		name := b.String()
		if rng.Float64() < 0.15 {
			name += "_" + []string{"inc", "corp", "gmbh", "ltd", "org"}[rng.Intn(5)]
		}
		if !u.nameCollides(name) {
			u.registerName(name)
			return name
		}
	}
}

// productName synthesizes a product name. Names are overwhelmingly
// vendor-scoped (as in the real CPE dictionary, where identical product
// names under different vendors are rare): most templates embed a
// vendor token or a unique syllabic coinage. Cross-vendor collisions
// are injected only deliberately through genericProducts — otherwise
// the shared-product heuristic drowns in accidental #MP pairs at full
// scale, which the real NVD does not exhibit.
func (u *Universe) productName(rng *rand.Rand, v *Vendor, idx int) string {
	syllable := func() string { return productSyllables[rng.Intn(len(productSyllables))] }
	word := func() string { return productWords[rng.Intn(len(productWords))] }
	vendorTok := firstToken(v.Name)
	switch rng.Intn(5) {
	case 0:
		// vendorword_product: "oracle_database".
		return fmt.Sprintf("%s_%s", vendorTok, word())
	case 1:
		// vendor-scoped qualified name: "oracle_secure_gateway".
		return fmt.Sprintf("%s_%s_%s", vendorTok,
			productQualifiers[rng.Intn(len(productQualifiers))], word())
	case 2:
		// Three-component name, abbreviation-friendly:
		// "orlan_management_system".
		return fmt.Sprintf("%s%s_%s_%s", vendorTok[:2], syllable(), word(),
			[]string{"system", "engine", "tool", "kit", "service"}[rng.Intn(5)])
	case 3:
		// Vendor-scoped syllabic coinage: "orbelserver". The full word is
		// used (not a truncation) so truncated stems cannot collide at
		// edit distance 1 ("con"sole vs "mon"itor).
		return vendorTok[:2] + syllable() + word()
	default:
		// vendorword + numbered product line: "oracle_server3".
		return fmt.Sprintf("%s_%s%d", vendorTok, word(), idx+1)
	}
}

func firstToken(s string) string {
	if i := strings.IndexAny(s, "_-! "); i > 0 {
		return s[:i]
	}
	return s
}

// injectVendorAliases gives a VendorAliasRate fraction of vendors one or
// two inconsistent aliases, spread over the Table 2 patterns. The head
// vendors the paper calls out as gaining CVEs after correction (§5.4:
// "Oracle had over 100 more associated CVEs after our naming fixes, and
// Debian had 95 more") always receive one.
func (u *Universe) injectVendorAliases(cfg Config, rng *rand.Rand) {
	forced := map[string]bool{"oracle": true, "debian": true, "redhat": true, "ibm": true, "linux": true}
	for _, v := range u.Vendors {
		if !forced[v.Name] && rng.Float64() >= cfg.VendorAliasRate {
			continue
		}
		n := 1
		if rng.Float64() < 0.15 {
			n = 2
		}
		for i := 0; i < n; i++ {
			alias, pattern := u.makeVendorAlias(v, rng)
			if alias == "" {
				continue
			}
			v.Aliases = append(v.Aliases, VendorAlias{Name: alias, Pattern: pattern})
		}
	}
}

func (u *Universe) makeVendorAlias(v *Vendor, rng *rand.Rand) (string, string) {
	for attempt := 0; attempt < 8; attempt++ {
		var alias, pattern string
		switch rng.Intn(5) {
		case 0: // special characters: bea_systems vs "bea systems"/"bea-systems"/"avast!"
			pattern = "tokens"
			switch {
			case strings.Contains(v.Name, "_"):
				alias = strings.ReplaceAll(v.Name, "_", "-")
			case rng.Float64() < 0.5:
				alias = v.Name + "!"
			default:
				half := len(v.Name) / 2
				if half == 0 {
					continue
				}
				alias = v.Name[:half] + "_" + v.Name[half:]
			}
		case 1: // misspelling: drop one interior character (microsft)
			pattern = "misspell"
			if len(v.Name) < 5 {
				continue
			}
			pos := 1 + rng.Intn(len(v.Name)-2)
			if v.Name[pos] == '_' || v.Name[pos] == '-' {
				continue
			}
			alias = v.Name[:pos] + v.Name[pos+1:]
		case 2: // prefix: lynx vs lynx_project
			pattern = "prefix"
			suffix := []string{"_project", "_inc", "_software", "_team", "_foundation"}[rng.Intn(5)]
			if strings.HasSuffix(v.Name, suffix) {
				alias = strings.TrimSuffix(v.Name, suffix)
			} else {
				alias = v.Name + suffix
			}
		case 3: // abbreviation: lan_management_system -> lms
			pattern = "abbrev"
			tokens := strings.FieldsFunc(v.Name, func(r rune) bool { return r == '_' || r == '-' })
			// Two-letter initials ("zi" from zanlex_inc) would collide
			// with the initials of every similarly-suffixed vendor;
			// real abbreviation aliases are 3+ characters.
			if len(tokens) < 3 {
				continue
			}
			var b strings.Builder
			for _, t := range tokens {
				b.WriteByte(t[0])
			}
			alias = b.String()
		default: // product used as vendor name
			pattern = "product-as-vendor"
			if len(v.Products) == 0 {
				continue
			}
			alias = v.Products[rng.Intn(len(v.Products))].Name
		}
		if alias == "" || alias == v.Name || u.nameTaken[alias] {
			continue
		}
		// Intentional collisions with the canonical name are the point;
		// register the alias so later fresh names keep their distance
		// from it too.
		u.registerName(alias)
		return alias, pattern
	}
	return "", ""
}

// injectProductAliases gives a ProductAliasRate fraction of products an
// inconsistent alias using the §4.2 product patterns.
func (u *Universe) injectProductAliases(cfg Config, rng *rand.Rand) {
	for _, v := range u.Vendors {
		taken := make(map[string]bool, len(v.Products))
		for _, p := range v.Products {
			taken[p.Name] = true
		}
		for _, p := range v.Products {
			if rng.Float64() >= cfg.ProductAliasRate {
				continue
			}
			alias := makeProductAlias(p.Name, rng)
			if alias == "" || alias == p.Name || taken[alias] {
				continue
			}
			taken[alias] = true
			p.Aliases = append(p.Aliases, alias)
		}
	}
}

func makeProductAlias(name string, rng *rand.Rand) string {
	tokens := strings.FieldsFunc(name, func(r rune) bool { return r == '_' || r == '-' || r == ' ' })
	switch rng.Intn(3) {
	case 0: // separator variant: internet_explorer -> internet-explorer
		if strings.Contains(name, "_") {
			if rng.Float64() < 0.5 {
				return strings.ReplaceAll(name, "_", "-")
			}
			return strings.ReplaceAll(name, "_", " ")
		}
		if len(tokens) == 1 && len(name) > 5 {
			half := len(name) / 2
			return name[:half] + "_" + name[half:]
		}
		return ""
	case 1: // abbreviation: internet_explorer -> ie
		if len(tokens) < 2 {
			return ""
		}
		var b strings.Builder
		for _, t := range tokens {
			b.WriteByte(t[0])
		}
		return b.String()
	default: // human-error typo at edit distance 1 (tbe_banner_engine)
		if len(name) < 6 {
			return ""
		}
		pos := rng.Intn(len(name))
		c := name[pos]
		if c == '_' || c == '-' {
			return ""
		}
		// Swap with an adjacent letter or substitute a neighbor key.
		if pos+1 < len(name) && name[pos+1] != '_' && name[pos+1] != '-' && name[pos] != name[pos+1] {
			return name[:pos] + string(name[pos+1]) + string(name[pos]) + name[pos+2:]
		}
		return ""
	}
}

// VendorAliasCount counts injected vendor aliases.
func (u *Universe) VendorAliasCount() int {
	var n int
	for _, v := range u.Vendors {
		n += len(v.Aliases)
	}
	return n
}
