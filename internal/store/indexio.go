package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
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
// builds the posting map while each posting's blocks stay raw bytes
// slices into the segment, so a lazily-loaded shard costs its key table
// plus only the blocks queries actually decode. The entry count pins
// the segment to one cleaned snapshot length — a mismatch at load time
// downgrades the whole index to an in-memory rebuild rather than serve
// ordinals against the wrong snapshot.

// indexFormatVersion is the segment encode version. Version 1
// segments may index a snapshot in its feed's order, which cve.ReadFeed
// now sorts into ID order, so their ordinals can name other entries;
// they load as unusable and the index is rebuilt once.
const indexFormatVersion = 2

var indexMagic = []byte("NVIX")

// indexSegName is the checkpoint file name of shard s's segment.
func indexSegName(s int) string { return fmt.Sprintf("index-%02d.seg", s) }

// keyLess is the canonical key order of the wire format.
func keyLess(a, b key) bool {
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.a != b.a {
		return a.a < b.a
	}
	return a.b < b.b
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
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
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

// str reads a length-prefixed string, copying out of the segment so
// parsed keys never pin the raw buffer.
func (r *wireReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
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

// peekShardEntries reads only the segment header, leaving every posting
// untouched — the boot-time cost of a lazy shard.
func peekShardEntries(raw []byte) (int, error) {
	return parseShardHeader(&wireReader{buf: raw})
}

// parseShardWire parses one shard segment into its posting map. Block
// data is aliased, not copied; per-block corruption surfaces later, on
// first decode. Structural corruption — truncation, out-of-order or
// duplicate keys, skip entries out of order or out of snapshot range —
// is rejected here.
func parseShardWire(raw []byte) (map[key]*posting, int, error) {
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
	post := make(map[key]*posting, nKeys)
	var prevKey key
	for i := 0; i < nKeys; i++ {
		kindB, err := r.byteVal()
		if err != nil {
			return nil, 0, err
		}
		kind := keyKind(kindB)
		if kind < keyVendor || kind > keyYear {
			return nil, 0, fmt.Errorf("bad index key kind %d", kindB)
		}
		a, err := r.str()
		if err != nil {
			return nil, 0, err
		}
		b, err := r.str()
		if err != nil {
			return nil, 0, err
		}
		k := key{kind: kind, a: a, b: b}
		if i > 0 && !keyLess(prevKey, k) {
			return nil, 0, errors.New("index keys out of order")
		}
		prevKey = k
		countU, err := r.uvarint()
		if err != nil || countU == 0 || countU > uint64(entries) {
			return nil, 0, errors.New("bad posting count")
		}
		count := int(countU)
		nBlocks := (count + postingBlockSize - 1) / postingBlockSize
		skips := make([]skipEntry, nBlocks)
		var off uint64
		prevLast := int64(-1)
		for bi := range skips {
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
			skips[bi] = skipEntry{
				first: uint32(first),
				last:  uint32(last),
				off:   uint32(off),
				bytes: uint32(blen),
			}
			off += blen
			prevLast = int64(last)
		}
		data, err := r.take(int(off))
		if err != nil {
			return nil, 0, err
		}
		post[k] = &posting{count: count, skips: skips, data: data}
	}
	if r.off != len(raw) {
		return nil, 0, errors.New("trailing bytes after index segment")
	}
	return post, entries, nil
}
