package digest

import "bytes"

// The snapshot kernel. A Scope does not stream each component's fields
// through FNV-1a one byte at a time; it collects the bytes DigestState
// writes, compares them with the previous snapshot's bytes, and folds
// every unchanged block in O(1) from a memo. The digests are bit-identical
// to streaming because of one identity of 64-bit FNV-1a. For a
// state x and a block of bytes B,
//
//	FNV1a(x, B) = x·P^|B| + C_B(x mod 256)   (mod 2^64)
//
// where C_B depends on the block and on the low byte of x only: XOR with
// a byte b touches only the low byte, x⊕b = x + ((x mod 256)⊕b − x mod 256),
// and the low byte of a product depends only on the low bytes of its
// factors, so the high bits of x ride along as x·P^k while the low byte
// evolves on its own. C_B(l) = FNV1a(x, B) − x·P^|B| for any x with low
// byte l, which is how a miss learns it.
//
// Epoch ticks far outnumber state changes once a run drains (the runners
// keep ticking to their deadline), so most blocks repeat the previous
// snapshot's bytes and cost a compare and a multiply-add instead of
// about 4 cycles per byte.

// blockSize is the memo granularity in bytes. A component's bytes are cut
// into blocks at multiples of blockSize from its own start, so an edit in
// one block leaves its neighbours' memos valid.
const blockSize = 256

// powP[n] is P^n mod 2^64, the factor an n-byte block applies to the
// high bits of the state.
var powP = func() (p [blockSize + 1]uint64) {
	p[0] = 1
	for i := 1; i <= blockSize; i++ {
		p[i] = p[i-1] * fnvPrime64
	}
	return p
}()

// blockMemo caches C_B for one block of one component, indexed by the low
// byte of the state entering the block. It is valid only while the block
// holds exactly the bytes (same offset, same length) it was learned on.
type blockMemo struct {
	seen [4]uint64 // bitmap over low bytes with a learned c entry
	c    [256]uint64
}

// fnvBytes folds b into state x, one byte at a time.
func fnvBytes(x uint64, b []byte) uint64 {
	for _, c := range b {
		x ^= uint64(c)
		x *= fnvPrime64
	}
	return x
}

// collect runs every component's DigestState into the scope's current
// buffer, after demoting the last collect's buffer to prev (the two swap,
// nothing is copied). Every collect must be followed by exactly one fold
// of each component, which is what keeps the memos in step with the bytes.
func (s *Scope) collect() {
	s.prev, s.cur = s.cur, s.prev
	s.prevEnd, s.curEnd = s.curEnd, s.prevEnd
	s.h.buf = s.cur[:0]
	if s.h.buf == nil {
		s.h.buf = make([]byte, 0, 4*blockSize)
	}
	for i := range s.comps {
		s.comps[i].d.DigestState(&s.h)
		s.curEnd[i] = len(s.h.buf)
	}
	s.cur = s.h.buf
}

// span returns component i's bytes in a buffer with the given end offsets.
func span(buf []byte, end []int, i int) []byte {
	lo := 0
	if i > 0 {
		lo = end[i-1]
	}
	return buf[lo:end[i]]
}

// fold returns FNV-1a of component i's collected bytes starting from state
// x, block by block. A block whose bytes match the previous collect's
// block at the same offset and length folds from its memo; any other
// block drops its memo. A memo miss hashes the block and learns C_B.
func (s *Scope) fold(i int, x uint64) uint64 {
	cur := span(s.cur, s.curEnd, i)
	old := span(s.prev, s.prevEnd, i)
	memos := s.memo[i]
	for j, off := 0, 0; off < len(cur); j, off = j+1, off+blockSize {
		blk := cur[off:min(off+blockSize, len(cur))]
		if j == len(memos) {
			memos = append(memos, nil)
			s.memo[i] = memos
		}
		m := memos[j]
		if off >= len(old) || !bytes.Equal(blk, old[off:min(off+blockSize, len(old))]) {
			if m != nil {
				m.seen = [4]uint64{}
			}
			x = fnvBytes(x, blk)
			continue
		}
		if m == nil {
			m = new(blockMemo)
			memos[j] = m
		}
		l := x & 0xff
		hi := x * powP[len(blk)]
		if m.seen[l>>6]&(1<<(l&63)) != 0 {
			x = hi + m.c[l]
			continue
		}
		y := fnvBytes(x, blk)
		m.c[l] = y - hi
		m.seen[l>>6] |= 1 << (l & 63)
		x = y
	}
	return x
}
