package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"

	"nvdclean/internal/cve"
	"nvdclean/internal/cwe"
	"nvdclean/internal/gen"
)

// workload is one traffic mix driven against nvdserve. Rates are
// open-loop: requests are due on a fixed schedule whether or not the
// daemon kept up, and latency counts from the due time.
type workload struct {
	name string
	// cves and vendors size the generated snapshot; every other
	// generator setting is gen.DefaultConfig's, so the defect mix the
	// pipeline cleans is the paper's.
	cves, vendors int
	// readRate is the GET rate over the read connections. cold selects
	// the wide uniform mix (every /cve and /query key equally likely)
	// instead of the zipf-skewed hot mix over 64 fixed /query keys.
	readRate float64
	cold     bool
	// postRate is the POST /feed rate on connection 0; 0 makes the
	// workload read-only and both connections carry reads.
	postRate float64
	// follower adds a -follow replica: reads, the closed-loop phase and
	// the visibility probes go to it, posts go to the primary.
	follower bool
}

// workloads are the benchmark's traffic mixes; README.md records why
// each exists and which layers it isolates. Each rate keeps its
// workload below saturation on a 2-vCPU host, so loadgen.backlog_max
// stays small and latencies describe the daemon, not a queue the
// generator built.
var workloads = []workload{
	// The working set fits respcache: reads bypass the index, the
	// pipeline and the store.
	{name: "read-hot", cves: 3000, vendors: 600, readRate: 1000},
	// The working set dwarfs the 4 MiB query LRU: reads go to
	// Index.Match and encoding.
	{name: "read-cold", cves: 20000, vendors: 3200, readRate: 500, cold: true},
	// The write path: decode, CleanDelta, fsynced append, index update,
	// cache seeding and background compaction, with hot reads beside.
	{name: "ingest", cves: 20000, vendors: 3200, readRate: 300, postRate: 1.5},
	// Replication: the follower tails, folds and serves each post. Each
	// compaction may or may not make the follower re-bootstrap (its
	// cursor segment retired before it read the seal), so the run posts
	// as often as ingest to take two compactions, not one, per run.
	{name: "replicate", cves: 20000, vendors: 3200, readRate: 300, postRate: 1.5, follower: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// post is one POST /feed body and what a reader must see once it is
// acknowledged: every upserted entry's first description ends with
// marker. added marks a post that adds a new CVE.
type post struct {
	body    []byte
	entries []*cve.Entry
	marker  string
	added   bool
}

// inputs is everything a run generates from its seed. The daemon
// receives only feed (as a file) and the post bodies (over HTTP).
type inputs struct {
	snap *cve.Snapshot
	ids  []string
	feed []byte
	// posts is the whole seeded post sequence; a run sends a prefix.
	posts []post
	// hotKeys are the read-hot /query parameter sets; coldKeys the base
	// filters the cold mix crosses with coldPages.
	hotKeys  []string
	coldKeys []string
}

// coldPages multiplies each cold base filter into distinct cache keys
// (the canonical key includes limit and offset).
var coldPages = []string{"limit=10", "limit=25", "limit=50", "limit=10&offset=5", "limit=25&offset=5", "limit=50&offset=5"}

// generate builds a run's inputs: the snapshot from gen, the boot feed,
// maxPosts feed updates, and the /query key sets.
func generate(w workload, seed int64, maxPosts int) (*inputs, error) {
	cfg := gen.DefaultConfig()
	cfg.Seed = seed
	cfg.NumCVEs = w.cves
	cfg.NumVendors = w.vendors
	snap, _, universe, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	in := &inputs{snap: snap, ids: make([]string, len(snap.Entries))}
	for i, e := range snap.Entries {
		in.ids[i] = e.ID
	}
	var buf bytes.Buffer
	if err := cve.WriteFeedCompact(&buf, snap); err != nil {
		return nil, err
	}
	in.feed = buf.Bytes()
	if in.posts, err = makePosts(snap, seed, maxPosts); err != nil {
		return nil, err
	}
	in.hotKeys, in.coldKeys = queryKeys(snap, universe, seed)
	return in, nil
}

// makePosts draws the update stream: 80% one-entry description edits,
// 15% new v2-only CVEs (the NVD's common case, which leaves the
// severity training split untouched) and 5% ten-entry edits. The kind
// is fixed by position in each run of 20 posts, with every kind within
// the first eight, and only the entries are random: every seed's
// prefix carries the same mix.
func makePosts(snap *cve.Snapshot, seed int64, n int) ([]post, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_f00d))
	var v2only []*cve.Entry
	nextSeq := 0
	for _, e := range snap.Entries {
		if e.V3 == nil && e.V2 != nil {
			v2only = append(v2only, e)
		}
		if y, s, err := cve.SplitID(e.ID); err == nil && y == 2018 && s > nextSeq {
			nextSeq = s
		}
	}
	if len(v2only) == 0 {
		return nil, fmt.Errorf("snapshot has no v2-only entries to model new CVEs on")
	}
	posts := make([]post, n)
	for i := range posts {
		marker := fmt.Sprintf("[nvdbench update %d-%d]", seed, i)
		edit := func(e *cve.Entry) *cve.Entry {
			c := e.Clone()
			c.Descriptions[0].Value = e.Descriptions[0].Value + " " + marker
			c.LastModified = snap.CapturedAt
			return c
		}
		var entries []*cve.Entry
		added := false
		switch i % 20 {
		default:
			entries = []*cve.Entry{edit(snap.Entries[rng.Intn(len(snap.Entries))])}
		case 3, 10, 16:
			nextSeq++
			c := edit(v2only[rng.Intn(len(v2only))])
			c.ID = cve.FormatID(2018, nextSeq)
			c.Published = snap.CapturedAt
			c.PV3 = nil
			entries = []*cve.Entry{c}
			added = true
		case 7:
			for _, j := range rng.Perm(len(snap.Entries))[:10] {
				entries = append(entries, edit(snap.Entries[j]))
			}
		}
		sort.Slice(entries, func(a, b int) bool { return cve.IDLess(entries[a].ID, entries[b].ID) })
		var buf bytes.Buffer
		body := &cve.Snapshot{CapturedAt: snap.CapturedAt.Add(time.Duration(i+1) * time.Minute), Entries: entries}
		if err := cve.WriteFeedCompact(&buf, body); err != nil {
			return nil, err
		}
		posts[i] = post{body: buf.Bytes(), entries: entries, marker: marker, added: added}
	}
	return posts, nil
}

// queryKeys builds the /query parameter sets: 64 seeded hot keys drawn
// from the heaviest vendors, their products, common CWEs and
// year+severity bands; and the cold base filters — every vendor, every
// vendor+product pair, every CWE present and every year+severity band.
func queryKeys(snap *cve.Snapshot, u *gen.Universe, seed int64) (hot, cold []string) {
	vendors := append([]*gen.Vendor(nil), u.Vendors...)
	sort.SliceStable(vendors, func(i, j int) bool { return vendors[i].CVEWeight > vendors[j].CVEWeight })
	cwes := map[cwe.ID]int{}
	years := map[int]bool{}
	for _, e := range snap.Entries {
		for _, c := range e.CWEs {
			if c > 0 {
				cwes[c]++
			}
		}
		years[e.Year()] = true
	}
	cweList := make([]cwe.ID, 0, len(cwes))
	for c := range cwes {
		cweList = append(cweList, c)
	}
	sort.Slice(cweList, func(i, j int) bool {
		if cwes[cweList[i]] != cwes[cweList[j]] {
			return cwes[cweList[i]] > cwes[cweList[j]]
		}
		return cweList[i] < cweList[j]
	})
	yearList := make([]int, 0, len(years))
	for y := range years {
		yearList = append(yearList, y)
	}
	sort.Ints(yearList)
	severities := []string{"LOW", "MEDIUM", "HIGH", "CRITICAL"}

	enc := func(kv ...string) string {
		v := url.Values{}
		for i := 0; i < len(kv); i += 2 {
			v.Set(kv[i], kv[i+1])
		}
		return v.Encode()
	}
	for _, v := range vendors {
		cold = append(cold, enc("vendor", v.Name))
		for _, p := range v.Products {
			cold = append(cold, enc("vendor", v.Name, "product", p.Name))
		}
	}
	for _, c := range cweList {
		cold = append(cold, enc("cwe", c.String()))
	}
	for _, y := range yearList {
		for _, s := range severities {
			cold = append(cold, enc("year", strconv.Itoa(y), "severity", s))
		}
	}

	// Sixteen distinct keys of each kind, drawn from the same strata on
	// every seed, so the hot set's response sizes vary little by seed.
	rng := rand.New(rand.NewSource(seed ^ 0x0b5e55ed))
	top := vendors[:min(32, len(vendors))]
	recent := yearList[max(0, len(yearList)-8):]
	vp, cp, yp := rng.Perm(len(top)), rng.Perm(min(32, len(cweList))), rng.Perm(len(recent)*len(severities))
	for i := 0; i < 16; i++ {
		v := top[vp[i%len(vp)]]
		p := v.Products[rng.Intn(len(v.Products))]
		y := yp[i%len(yp)]
		hot = append(hot,
			enc("vendor", v.Name),
			enc("vendor", v.Name, "product", p.Name),
			enc("cwe", cweList[cp[i%len(cp)]].String()),
			enc("year", strconv.Itoa(recent[y/len(severities)]), "severity", severities[y%len(severities)]))
	}
	return hot, cold
}

// mix draws one connection's GET sequence. Each connection owns its
// mix (and its rand source), so the sequence depends only on the seed
// and the connection number.
type mix struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	// rank maps a zipf rank to an ID index, so the hottest IDs are
	// spread over the snapshot rather than being its oldest entries.
	rank []int
	in   *inputs
	cold bool
}

func newMix(in *inputs, cold bool, seed int64, conn int) *mix {
	rng := rand.New(rand.NewSource(seed*131 + int64(conn)))
	m := &mix{rng: rng, in: in, cold: cold}
	if !cold {
		m.rank = rand.New(rand.NewSource(seed)).Perm(len(in.ids))
		m.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(in.ids)-1))
	}
	return m
}

// next returns the path of the next GET and whether it should be sent
// conditionally (with the last validator seen for that path).
func (m *mix) next() (string, bool) {
	conditional := m.rng.Float64() < 0.3
	if m.cold {
		if m.rng.Intn(2) == 0 {
			return "/cve/" + m.in.ids[m.rng.Intn(len(m.in.ids))], conditional
		}
		k := m.rng.Intn(len(m.in.coldKeys) * len(coldPages))
		return "/query?" + m.in.coldKeys[k/len(coldPages)] + "&" + coldPages[k%len(coldPages)], conditional
	}
	if m.rng.Float64() < 0.7 {
		return "/cve/" + m.in.ids[m.rank[m.zipf.Uint64()]], conditional
	}
	return "/query?" + m.in.hotKeys[m.rng.Intn(len(m.in.hotKeys))], conditional
}
