package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// On-disk index segments: each checkpoint generation persists one
// `index-NN.seg` file per shard, CRC-summed in MANIFEST.json like every
// other artifact. The wire layout is
//
//	"NVIX" | version(1B) | entryCount(uvarint) | keyCount(uvarint)
//	then per key, sorted by (kind, a, b):
//	  kind(1B) | len(a) a | len(b) b | ordCount(uvarint)
//	  per block: first last byteLen (uvarints)
//	  concatenated delta-varint block data
//
// Everything before the block data is the shard's key table; parsing it
// builds the posting map while each posting's blocks stay raw byte
// slices into the segment, decoded only when a query or update reads
// them. The entry count pins the segment to one cleaned snapshot
// length — a mismatch at load time downgrades the whole index to an
// in-memory rebuild rather than serve ordinals against the wrong
// snapshot.

// indexFormatVersion is the segment encode version. Version 1
// segments may index a snapshot in its feed's order, which cve.ReadFeed
// now sorts into ID order, so their ordinals can name other entries;
// they load as unusable and the index is rebuilt once.
const indexFormatVersion = 2

var indexMagic = []byte("NVIX")

// indexSegName is the checkpoint file name of shard s's segment.
func indexSegName(s int) string { return fmt.Sprintf("index-%02d.seg", s) }

// compareKeys is the canonical key order of the wire format: by kind,
// then the a field, then the b field.
func compareKeys(x, y key) int {
	if x.kind != y.kind {
		return cmp.Compare(x.kind, y.kind)
	}
	if c := strings.Compare(x.a, y.a); c != 0 {
		return c
	}
	return strings.Compare(x.b, y.b)
}

// appendShardWire serializes one shard's posting map over a snapshot of
// `entries` entries. The encoding is canonical: keys in (kind, a, b)
// order, blocks exactly as encodePosting lays them out.
func appendShardWire(buf []byte, entries int, post map[key]*posting) []byte {
	buf = append(buf, indexMagic...)
	buf = append(buf, indexFormatVersion)
	buf = binary.AppendUvarint(buf, uint64(entries))
	keys := make([]key, 0, len(post))
	for k := range post {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		p := post[k]
		buf = append(buf, byte(k.kind))
		buf = binary.AppendUvarint(buf, uint64(len(k.a)))
		buf = append(buf, k.a...)
		buf = binary.AppendUvarint(buf, uint64(len(k.b)))
		buf = append(buf, k.b...)
		buf = binary.AppendUvarint(buf, uint64(p.count))
		for _, sk := range p.skips {
			buf = binary.AppendUvarint(buf, uint64(sk.first))
			buf = binary.AppendUvarint(buf, uint64(sk.last))
			buf = binary.AppendUvarint(buf, uint64(sk.bytes))
		}
		buf = append(buf, p.data...)
	}
	return buf
}

// wireReader is a bounds-checked cursor over one segment.
type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || n > len(r.buf)-r.off {
		return nil, errors.New("truncated segment")
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wireReader) byteVal() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, errors.New("truncated varint")
	}
	r.off += n
	return v, nil
}

// bytesField reads a length-prefixed byte string, aliasing the
// segment.
func (r *wireReader) bytesField() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	return r.take(int(n))
}

// parseShardHeader validates the magic and version and returns the
// entry count.
func parseShardHeader(r *wireReader) (int, error) {
	magic, err := r.take(len(indexMagic))
	if err != nil || !bytes.Equal(magic, indexMagic) {
		return 0, errors.New("bad index segment magic")
	}
	ver, err := r.byteVal()
	if err != nil {
		return 0, err
	}
	if ver != indexFormatVersion {
		return 0, fmt.Errorf("unsupported index segment version %d", ver)
	}
	entries, err := r.uvarint()
	if err != nil || entries > math.MaxUint32 {
		return 0, errors.New("bad index segment entry count")
	}
	return int(entries), nil
}

// parseShardWire parses one shard segment into its posting map. Block
// data is aliased, not copied; per-block corruption surfaces later, on
// first decode. Structural corruption — truncation, out-of-order or
// duplicate keys, skip entries out of order or out of snapshot range —
// is rejected here.
//
// The segment is read twice. The first pass validates it and sizes the
// shard; the second builds it from one allocation each of key bytes,
// skip entries and postings, so a shard costs a constant number of
// objects besides its map, however many keys it holds. The key
// strings are copied out of the segment, so they never pin it.
func parseShardWire(raw []byte) (map[key]*posting, int, error) {
	var keyBytes, blocks int
	var post map[key]*posting
	var strs strings.Builder
	var skipsArena []skipEntry
	var postings []posting
	for fill := false; ; fill = true {
		r := &wireReader{buf: raw}
		entries, err := parseShardHeader(r)
		if err != nil {
			return nil, 0, err
		}
		nKeysU, err := r.uvarint()
		if err != nil || nKeysU > uint64(len(raw)) {
			return nil, 0, errors.New("bad index segment key count")
		}
		nKeys := int(nKeysU)
		if fill {
			post = make(map[key]*posting, nKeys)
			strs.Grow(keyBytes)
			skipsArena = make([]skipEntry, blocks)
			postings = make([]posting, nKeys)
		}
		var prevKind keyKind
		var prevA, prevB []byte
		for i := 0; i < nKeys; i++ {
			kindB, err := r.byteVal()
			if err != nil {
				return nil, 0, err
			}
			kind := keyKind(kindB)
			if kind < keyVendor || kind > keyYear {
				return nil, 0, fmt.Errorf("bad index key kind %d", kindB)
			}
			a, err := r.bytesField()
			if err != nil {
				return nil, 0, err
			}
			b, err := r.bytesField()
			if err != nil {
				return nil, 0, err
			}
			if i > 0 && !wireKeyLess(prevKind, prevA, prevB, kind, a, b) {
				return nil, 0, errors.New("index keys out of order")
			}
			prevKind, prevA, prevB = kind, a, b
			countU, err := r.uvarint()
			if err != nil || countU == 0 || countU > uint64(entries) {
				return nil, 0, errors.New("bad posting count")
			}
			count := int(countU)
			nBlocks := (count + postingBlockSize - 1) / postingBlockSize
			var skips []skipEntry
			if fill {
				skips, skipsArena = skipsArena[:nBlocks:nBlocks], skipsArena[nBlocks:]
			}
			var off uint64
			prevLast := int64(-1)
			for bi := 0; bi < nBlocks; bi++ {
				first, err := r.uvarint()
				if err != nil {
					return nil, 0, err
				}
				last, err := r.uvarint()
				if err != nil {
					return nil, 0, err
				}
				blen, err := r.uvarint()
				if err != nil {
					return nil, 0, err
				}
				if first > last || last >= uint64(entries) {
					return nil, 0, errors.New("posting skip entry out of range")
				}
				if int64(first) <= prevLast {
					return nil, 0, errors.New("posting skip entries out of order")
				}
				if off+blen > uint64(len(raw)) {
					return nil, 0, errors.New("posting block extent out of range")
				}
				if fill {
					skips[bi] = skipEntry{
						first: uint32(first),
						last:  uint32(last),
						off:   uint32(off),
						bytes: uint32(blen),
					}
				}
				off += blen
				prevLast = int64(last)
			}
			data, err := r.take(int(off))
			if err != nil {
				return nil, 0, err
			}
			if !fill {
				keyBytes += len(a) + len(b)
				blocks += nBlocks
				continue
			}
			start := strs.Len()
			strs.Write(a)
			strs.Write(b)
			ab := strs.String()[start:]
			p := &postings[i]
			*p = posting{count: count, skips: skips, data: data}
			post[key{kind: kind, a: ab[:len(a)], b: ab[len(a):]}] = p
		}
		if r.off != len(raw) {
			return nil, 0, errors.New("trailing bytes after index segment")
		}
		if fill {
			return post, entries, nil
		}
	}
}

// wireKeyLess is compareKeys(...) < 0 over two keys still in segment
// bytes.
func wireKeyLess(ak keyKind, aa, ab []byte, bk keyKind, ba, bb []byte) bool {
	if ak != bk {
		return ak < bk
	}
	if c := bytes.Compare(aa, ba); c != 0 {
		return c < 0
	}
	return bytes.Compare(ab, bb) < 0
}
