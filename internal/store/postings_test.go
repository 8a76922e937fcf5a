package store

import (
	"slices"
	"testing"
)

// ordsSeq builds the strictly increasing list {start, start+step, ...}
// of n ordinals.
func ordsSeq(start, step uint32, n int) []uint32 {
	out := make([]uint32, n)
	v := start
	for i := range out {
		out[i] = v
		v += step
	}
	return out
}

func TestPostingRoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{0},
		{41},
		ordsSeq(0, 1, postingBlockSize-1),
		ordsSeq(0, 1, postingBlockSize),
		ordsSeq(0, 1, postingBlockSize+1),
		ordsSeq(3, 17, 1000),
		{0, 1, 1000000, 1000001, 4000000000},
	}
	for _, ords := range cases {
		p := encodePosting(ords)
		if p.count != len(ords) {
			t.Fatalf("count %d, want %d", p.count, len(ords))
		}
		wantBlocks := (len(ords) + postingBlockSize - 1) / postingBlockSize
		if len(p.skips) != wantBlocks {
			t.Fatalf("%d blocks for %d ordinals, want %d", len(p.skips), len(ords), wantBlocks)
		}
		got, err := p.decode(nil)
		if err != nil {
			t.Fatalf("decode(%d ordinals): %v", len(ords), err)
		}
		if !slices.Equal(got, ords) {
			t.Fatalf("round trip of %d ordinals diverged", len(ords))
		}
	}
}

func TestPostingIterSeek(t *testing.T) {
	ords := ordsSeq(10, 7, 1000)
	p := encodePosting(ords)
	it := newPostingIter(p)
	// Monotone seek targets: exact hits, between-value targets, and a
	// long jump that must skip whole blocks.
	targets := []uint32{0, 10, 11, 17, 500, 501, 3000, ords[999]}
	for _, v := range targets {
		got, ok, err := it.seek(v)
		if err != nil {
			t.Fatalf("seek(%d): %v", v, err)
		}
		// Reference: first ordinal >= v.
		i, _ := slices.BinarySearch(ords, v)
		if i >= len(ords) {
			if ok {
				t.Fatalf("seek(%d) = %d, want exhausted", v, got)
			}
			continue
		}
		if !ok || got != ords[i] {
			t.Fatalf("seek(%d) = %d,%v, want %d", v, got, ok, ords[i])
		}
	}
	if _, ok, _ := it.seek(ords[999] + 1); ok {
		t.Fatal("seek past the last ordinal should exhaust")
	}
}

func TestIntersectPostings(t *testing.T) {
	cases := []struct{ a, b []uint32 }{
		{ordsSeq(0, 2, 600), ordsSeq(0, 3, 400)},
		{ordsSeq(0, 1, 50), ordsSeq(1000, 1, 50)},    // disjoint ranges: pure block skipping
		{ordsSeq(0, 1, 1000), ordsSeq(999, 1000, 4)}, // sparse drags dense past blocks
		{ordsSeq(5, 1, 3), ordsSeq(0, 1, 10)},        // containment
		{[]uint32{7}, []uint32{7}},                   // singletons
		{[]uint32{1, 2, 3}, []uint32{4, 5, 6}},       // empty result
	}
	for _, tc := range cases {
		want := map[uint32]bool{}
		for _, v := range tc.a {
			want[v] = true
		}
		var ref []uint32
		for _, v := range tc.b {
			if want[v] {
				ref = append(ref, v)
			}
		}
		got, err := intersectPostings(encodePosting(tc.a), encodePosting(tc.b), nil)
		if err != nil {
			t.Fatalf("intersect: %v", err)
		}
		if !slices.Equal(got, ref) {
			t.Fatalf("intersect(%d,%d ordinals) = %v, want %v", len(tc.a), len(tc.b), got, ref)
		}
		// intersectOrds (the 3+ list path) must agree.
		acc := slices.Clone(tc.a)
		acc, err = intersectOrds(acc, encodePosting(tc.b))
		if err != nil {
			t.Fatalf("intersectOrds: %v", err)
		}
		if !slices.Equal(acc, ref) {
			t.Fatalf("intersectOrds = %v, want %v", acc, ref)
		}
	}
}

func TestPostingRejectsNonMonotonic(t *testing.T) {
	// A hand-built block whose single delta is 0: the decoded second
	// ordinal would repeat the first.
	p := &posting{
		count: 2,
		skips: []skipEntry{{first: 5, last: 5, off: 0, bytes: 1}},
		data:  []byte{0x00},
	}
	if _, err := p.decode(nil); err == nil {
		t.Fatal("zero delta decoded without error")
	}
	// A delta overflowing uint32.
	p = &posting{
		count: 2,
		skips: []skipEntry{{first: ^uint32(0) - 1, last: ^uint32(0), off: 0, bytes: 2}},
		data:  []byte{0x80, 0x20}, // 4096
	}
	if _, err := p.decode(nil); err == nil {
		t.Fatal("uint32 overflow decoded without error")
	}
	// A final ordinal disagreeing with the skip entry.
	p = &posting{
		count: 2,
		skips: []skipEntry{{first: 5, last: 9, off: 0, bytes: 1}},
		data:  []byte{0x01},
	}
	if _, err := p.decode(nil); err == nil {
		t.Fatal("skip-entry mismatch decoded without error")
	}
	// Trailing bytes after the block's ordinals.
	p = &posting{
		count: 2,
		skips: []skipEntry{{first: 5, last: 6, off: 0, bytes: 2}},
		data:  []byte{0x01, 0x01},
	}
	if _, err := p.decode(nil); err == nil {
		t.Fatal("trailing block bytes decoded without error")
	}
}

// testShardPost builds a multi-key posting map exercising every key
// kind, pair keys with both fields, and multi-block postings.
func testShardPost() map[key]*posting {
	return map[key]*posting{
		{kind: keyVendor, a: "redhat"}:            encodePosting(ordsSeq(0, 3, 500)),
		{kind: keyProduct, a: "kernel"}:           encodePosting(ordsSeq(1, 2, 300)),
		{kind: keyPair, a: "redhat", b: "kernel"}: encodePosting(ordsSeq(7, 11, 90)),
		{kind: keyPair, a: "red", b: "hatkernel"}: encodePosting([]uint32{42}),
		{kind: keyCWE, a: "CWE-79"}:               encodePosting(ordsSeq(2, 5, 250)),
		{kind: keySeverity, a: "HIGH"}:            encodePosting(ordsSeq(0, 1, 129)),
		{kind: keyYear, a: "2017"}:                encodePosting([]uint32{1499}),
	}
}

func TestShardWireRoundTrip(t *testing.T) {
	post := testShardPost()
	wire := appendShardWire(nil, 1500, post)
	got, entries, err := parseShardWire(wire)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if entries != 1500 {
		t.Fatalf("entries = %d, want 1500", entries)
	}
	if len(got) != len(post) {
		t.Fatalf("parsed %d keys, want %d", len(got), len(post))
	}
	for k, p := range post {
		q := got[k]
		if q == nil {
			t.Fatalf("key %+v missing after round trip", k)
		}
		want, err := p.decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		have, err := q.decode(nil)
		if err != nil {
			t.Fatalf("decode %+v after round trip: %v", k, err)
		}
		if !slices.Equal(have, want) {
			t.Fatalf("posting %+v diverged after round trip", k)
		}
	}
	// Canonical: re-encoding the parsed map reproduces the bytes.
	if again := appendShardWire(nil, 1500, got); !slices.Equal(again, wire) {
		t.Fatal("re-encode of parsed shard is not byte-identical")
	}
}

// TestShardWireRejectsTruncation mirrors the WAL's torn-tail
// discipline: every proper prefix of a valid segment must fail to
// parse — the declared key count and block extents leave no prefix
// that looks complete.
func TestShardWireRejectsTruncation(t *testing.T) {
	wire := appendShardWire(nil, 1500, testShardPost())
	for n := 0; n < len(wire); n++ {
		if _, _, err := parseShardWire(wire[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed without error", n, len(wire))
		}
	}
}

func TestShardWireRejectsCorruption(t *testing.T) {
	valid := appendShardWire(nil, 1500, testShardPost())
	mutate := func(fn func([]byte)) []byte {
		b := slices.Clone(valid)
		fn(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":   mutate(func(b []byte) { b[0] = 'X' }),
		"bad version": mutate(func(b []byte) { b[len(indexMagic)] = 99 }),
		"trailing":    append(slices.Clone(valid), 0x00),
	}
	for name, b := range cases {
		if _, _, err := parseShardWire(b); err == nil {
			t.Errorf("%s parsed without error", name)
		}
	}
	// Keys out of order: encode two keys manually in reversed order.
	a := map[key]*posting{{kind: keyVendor, a: "a"}: encodePosting([]uint32{1})}
	b := map[key]*posting{{kind: keyVendor, a: "b"}: encodePosting([]uint32{2})}
	wa := appendShardWire(nil, 10, a)
	wb := appendShardWire(nil, 10, b)
	// Splice: header of a two-key shard, then b's key record, then a's.
	var spliced []byte
	spliced = append(spliced, wa[:len(indexMagic)+1]...) // magic+version
	spliced = append(spliced, 10)                        // entryCount=10 (single-byte varint)
	spliced = append(spliced, 2)                         // keyCount=2
	hdr := len(indexMagic) + 1 + 1 + 1                   // magic, version, entries, keys
	spliced = append(spliced, wb[hdr:]...)
	spliced = append(spliced, wa[hdr:]...)
	if _, _, err := parseShardWire(spliced); err == nil {
		t.Error("out-of-order keys parsed without error")
	}
	// An ordinal at/after the declared entry count.
	tooBig := appendShardWire(nil, 10, map[key]*posting{
		{kind: keyVendor, a: "v"}: encodePosting([]uint32{10}),
	})
	if _, _, err := parseShardWire(tooBig); err == nil {
		t.Error("ordinal >= entry count parsed without error")
	}
}

// FuzzPostingCodec fuzzes both codec layers. The segment layer must
// never panic, and anything it accepts must decode to strictly
// increasing in-range ordinals whose canonical re-encode is stable.
// The block layer proves encode→decode identity on lists derived from
// the fuzz input.
func FuzzPostingCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendShardWire(nil, 1500, testShardPost()))
	f.Add(appendShardWire(nil, 1, map[key]*posting{
		{kind: keyYear, a: "2017"}: encodePosting([]uint32{0}),
	}))
	f.Add([]byte("NVIX\x01"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if post, entries, err := parseShardWire(raw); err == nil {
			decoded := make(map[key][]uint32, len(post))
			clean := true
			for k, p := range post {
				ords, err := p.decode(nil)
				if err != nil {
					// Structural parse passed but a block is corrupt:
					// rejection at decode time is the contract.
					clean = false
					continue
				}
				if len(ords) != p.count {
					t.Fatalf("decoded %d ordinals, count says %d", len(ords), p.count)
				}
				for i, v := range ords {
					if int(v) >= entries {
						t.Fatalf("ordinal %d out of range (%d entries)", v, entries)
					}
					if i > 0 && v <= ords[i-1] {
						t.Fatalf("ordinals not strictly increasing: %d after %d", v, ords[i-1])
					}
				}
				decoded[k] = ords
			}
			if clean {
				// Canonical stability: re-encode from decoded ordinals,
				// parse again, and the second encode must be
				// byte-identical to the first.
				canon := make(map[key]*posting, len(decoded))
				for k, ords := range decoded {
					canon[k] = encodePosting(ords)
				}
				wire1 := appendShardWire(nil, entries, canon)
				post2, entries2, err := parseShardWire(wire1)
				if err != nil {
					t.Fatalf("canonical re-encode does not parse: %v", err)
				}
				if entries2 != entries || len(post2) != len(canon) {
					t.Fatal("canonical re-encode changed shape")
				}
				if wire2 := appendShardWire(nil, entries2, post2); !slices.Equal(wire1, wire2) {
					t.Fatal("canonical encode is not a fixed point")
				}
			}
		}

		// Block layer: derive a strictly increasing list from the fuzz
		// bytes and prove encode→decode→seek identity.
		var ords []uint32
		v := uint32(0)
		for _, c := range raw {
			v += uint32(c) + 1
			ords = append(ords, v)
			if len(ords) == 4096 {
				break
			}
		}
		if len(ords) == 0 {
			return
		}
		p := encodePosting(ords)
		got, err := p.decode(nil)
		if err != nil {
			t.Fatalf("decode of valid posting: %v", err)
		}
		if !slices.Equal(got, ords) {
			t.Fatal("posting round trip diverged")
		}
		it := newPostingIter(p)
		for _, tgt := range []int{0, len(ords) / 2, len(ords) - 1} {
			w, ok, err := it.seek(ords[tgt])
			if err != nil || !ok || w != ords[tgt] {
				t.Fatalf("seek(%d) = %d,%v,%v", ords[tgt], w, ok, err)
			}
		}
	})
}
