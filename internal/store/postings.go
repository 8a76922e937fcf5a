package store

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Posting lists hold entry ordinals — positions in the cleaned
// snapshot, which is sorted in (year, sequence) order — as strictly
// increasing uint32 sequences encoded in delta-varint blocks of
// postingBlockSize values. Each block carries a skip entry (first and
// last ordinal plus the block's byte extent), so an ordered-merge
// intersection discards whole blocks by range without decoding them,
// and a persisted shard can parse its key table while leaving every
// block as raw bytes.

// postingBlockSize is the fixed ordinal count per block. 128 keeps the
// skip table a small fraction of the encoded size while bounding the
// work a single seek has to decode.
const postingBlockSize = 128

// skipEntry locates one block: its first and last ordinals (for
// range skipping) and its byte extent in posting.data. The first
// ordinal of a block is stored only here; data holds the remaining
// blockLen-1 deltas.
type skipEntry struct {
	first, last uint32
	off, bytes  uint32
}

// posting is one encoded posting list. Immutable once built.
type posting struct {
	count int         // total ordinals
	skips []skipEntry // one per block
	data  []byte      // concatenated delta-varint blocks
}

// blockLen is the ordinal count of block b.
func (p *posting) blockLen(b int) int {
	if b == len(p.skips)-1 {
		return p.count - b*postingBlockSize
	}
	return postingBlockSize
}

// encodePosting encodes a strictly increasing ordinal list. Panics on
// unordered input: every caller feeds it lists built in snapshot order.
func encodePosting(ords []uint32) *posting {
	p := &posting{count: len(ords)}
	if len(ords) == 0 {
		return p
	}
	nBlocks := (len(ords) + postingBlockSize - 1) / postingBlockSize
	p.skips = make([]skipEntry, 0, nBlocks)
	data := make([]byte, 0, len(ords)) // 1 byte/delta for dense lists
	for start := 0; start < len(ords); start += postingBlockSize {
		end := min(start+postingBlockSize, len(ords))
		blk := ords[start:end]
		if start > 0 && blk[0] <= ords[start-1] {
			panic("store: posting ordinals not strictly increasing")
		}
		off := len(data)
		for i := 1; i < len(blk); i++ {
			if blk[i] <= blk[i-1] {
				panic("store: posting ordinals not strictly increasing")
			}
			data = binary.AppendUvarint(data, uint64(blk[i]-blk[i-1]))
		}
		p.skips = append(p.skips, skipEntry{
			first: blk[0],
			last:  blk[len(blk)-1],
			off:   uint32(off),
			bytes: uint32(len(data) - off),
		})
	}
	p.data = data
	return p
}

// decodeBlock appends block b's ordinals to dst, rejecting corrupt
// blocks: truncated or trailing bytes, non-monotonic deltas, ordinal
// overflow, and a final ordinal disagreeing with the skip entry.
func (p *posting) decodeBlock(b int, dst []uint32) ([]uint32, error) {
	sk := p.skips[b]
	if int64(sk.off)+int64(sk.bytes) > int64(len(p.data)) {
		return nil, fmt.Errorf("posting block %d: extent out of range", b)
	}
	data := p.data[sk.off : sk.off+sk.bytes]
	v := sk.first
	dst = append(dst, v)
	for i := 1; i < p.blockLen(b); i++ {
		d, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("posting block %d: truncated delta", b)
		}
		if d == 0 || uint64(v)+d > math.MaxUint32 {
			return nil, fmt.Errorf("posting block %d: non-monotonic ordinal", b)
		}
		data = data[n:]
		v += uint32(d)
		dst = append(dst, v)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("posting block %d: trailing bytes", b)
	}
	if v != sk.last {
		return nil, fmt.Errorf("posting block %d: last ordinal %d != skip entry %d", b, v, sk.last)
	}
	return dst, nil
}

// decode appends the full ordinal list to dst.
func (p *posting) decode(dst []uint32) ([]uint32, error) {
	var err error
	for b := range p.skips {
		if dst, err = p.decodeBlock(b, dst); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// postingIter iterates one posting in increasing-ordinal order with
// block-skipping seeks: a seek that lands past a block consults only
// its skip entry and never decodes it. Blocks decode into the
// iterator's own buffer, which holds a whole block, so an iterator on
// the stack allocates nothing.
type postingIter struct {
	p   *posting
	b   int // decoded block index; -1 before the first decode
	n   int // ordinals of block b in buf
	i   int // cursor within buf[:n]
	buf [postingBlockSize]uint32
}

func newPostingIter(p *posting) postingIter { return postingIter{p: p, b: -1} }

// seek returns the first ordinal >= v at or after the cursor, advancing
// the cursor to it. Seek targets must be non-decreasing.
func (it *postingIter) seek(v uint32) (uint32, bool, error) {
	sk := it.p.skips
	b := max(it.b, 0)
	for b < len(sk) && sk[b].last < v {
		b++
	}
	if b >= len(sk) {
		return 0, false, nil
	}
	if b != it.b {
		// A block holds at most postingBlockSize ordinals, so it
		// decodes in place.
		blk, err := it.p.decodeBlock(b, it.buf[:0])
		if err != nil {
			return 0, false, err
		}
		it.b, it.n, it.i = b, len(blk), 0
	}
	for it.i < it.n && it.buf[it.i] < v {
		it.i++
	}
	if it.i >= it.n {
		// Unreachable for well-formed blocks: sk[b].last >= v.
		return 0, false, fmt.Errorf("posting cursor overran block %d", b)
	}
	return it.buf[it.i], true, nil
}

// intersectPostings ordered-merges two posting lists into dst. Each
// side leapfrogs to the other's cursor, so runs of non-overlapping
// blocks are skipped via their skip entries without decoding.
func intersectPostings(a, b *posting, dst []uint32) ([]uint32, error) {
	ia, ib := newPostingIter(a), newPostingIter(b)
	va, okA, err := ia.seek(0)
	if err != nil {
		return nil, err
	}
	vb, okB, err := ib.seek(0)
	if err != nil {
		return nil, err
	}
	for okA && okB {
		switch {
		case va == vb:
			dst = append(dst, va)
			if va == math.MaxUint32 {
				return dst, nil
			}
			if va, okA, err = ia.seek(va + 1); err != nil {
				return nil, err
			}
			if vb, okB, err = ib.seek(vb + 1); err != nil {
				return nil, err
			}
		case va < vb:
			if va, okA, err = ia.seek(vb); err != nil {
				return nil, err
			}
		default:
			if vb, okB, err = ib.seek(va); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// intersectOrds narrows an already-materialized ordinal list by one
// more posting, in place.
func intersectOrds(acc []uint32, p *posting) ([]uint32, error) {
	it := newPostingIter(p)
	out := acc[:0]
	for _, v := range acc {
		w, ok, err := it.seek(v)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if w == v {
			out = append(out, v)
		}
	}
	return out, nil
}

// mergeOrds ordered-merges two increasing ordinal lists, dropping
// duplicates.
func mergeOrds(a, b []uint32) []uint32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
