package stats

import (
	"math/bits"
	"slices"
)

// The columns a Recorder keeps per sample, as uint64s while a chunk is
// staged.
const (
	colNetIn = iota
	colQueue
	colDevice
	colNetOut
	// colTotal holds Total minus the wrapping int64 sum of the stages,
	// zigzag-encoded: 0 for every request the simulator records.
	colTotal
	// colFlags holds the flag bits below.
	colFlags
	numCols
)

// Bits of the flags column.
const (
	flagWrite uint64 = 1 << iota
	flagRedirected
)

// excRowBits is the width of an exception's row. A chunk holds at most
// recorderChunk = 2^excRowBits rows.
const excRowBits = 14

// A chunk's last row must fit excRowBits: this overflows otherwise.
const _ uint = 1<<excRowBits - recorderChunk

// maxHigh is the most bits an exception keeps above its column's width,
// so that its row and those bits fit one unit of at most 63 bits.
const maxHigh = 63 - excRowBits

// candidateRows is how many of a column's first rows sealChunk scans for
// the value to split the column by.
const candidateRows = 64

// chunk is n sealed samples in one exact-size allocation. data holds the
// columns in column order, each laid out as its cols entry says:
//   - when the column is split, a bitmap of its n rows, set where the
//     row holds the column's dominant value dom;
//   - the low width bits of each of its rest rows, the rows the bitmap
//     leaves clear (every row of an unsplit column), packed into
//     consecutive words (a patched frame of reference with base 0);
//   - its exceptions, the rest rows whose values lie outside
//     [0, 2^width), in row order, bit-packed: each one's index among the
//     rest rows in the low excRowBits bits of a unit, and its value's
//     high bits above width, at most maxHigh of them, above.
type chunk struct {
	n    int
	cols [numCols]colLayout
	data []uint64
}

// colLayout is how a chunk stores one column.
type colLayout struct {
	// dom is the value of the rows a split column's bitmap sets.
	dom uint64
	// rest counts the rows packed at width; exc counts their exceptions.
	rest, exc uint16
	// width is the packed width of the rest rows; high is the number of
	// bits each exception keeps above it.
	width, high uint8
	split       bool
}

// words returns how many words the column fills in a chunk of n rows.
func (l *colLayout) words(n int) int {
	w := packedWords(int(l.rest), int(l.width)) + packedWords(int(l.exc), l.excBits())
	if l.split {
		w += packedWords(n, 1)
	}
	return w
}

// excBits returns how many bits each of the column's exceptions takes.
func (l *colLayout) excBits() int { return excRowBits + int(l.high) }

// packedWords returns how many words n values of w bits fill.
func packedWords(n, w int) int { return (n*w + 63) / 64 }

// sealChunk packs the n = len(cols[c]) staged values of each column into
// a chunk, choosing each column's layout from its own values. It moves
// the rest rows of a split column to the front of that column of cols.
func sealChunk(cols *[numCols][]uint64) chunk {
	n := len(cols[0])
	ch := chunk{n: n}
	words := 0
	for c, col := range cols {
		ch.cols[c] = layout(col)
		words += ch.cols[c].words(n)
	}
	ch.data = make([]uint64, words)
	data := ch.data
	for c, col := range cols {
		l := &ch.cols[c]
		if l.split {
			m := packedWords(n, 1)
			split(data[:m], col, l.dom)
			data, col = data[m:], col[:l.rest]
		}
		m := packedWords(int(l.rest), int(l.width))
		pack(data[:m], col, uint(l.width))
		data = data[m:]
		if l.exc > 0 {
			m = packedWords(int(l.exc), l.excBits())
			except(data[:m], col, uint(l.width), uint(l.high))
			data = data[m:]
		}
	}
	return ch
}

// layout returns how to store col in the fewest bits: packed at one
// width, or split by its dominant value when that saves bits. The
// dominant value is taken to be the most frequent of its first
// candidateRows values.
func layout(col []uint64) colLayout {
	dom, seen, scanned, widest := candidate(col)
	// The bitmap costs a bit per row. As the scanned rows estimate it,
	// splitting by dom saves at most widest bits on seen rows in scanned:
	// count dom's rows only when that could pay.
	count := seen*widest > scanned
	hist, same := bitLengths(col, dom, count)
	l, cost := fit(&hist, len(col))
	if !count {
		return l
	}
	hist[bits.Len64(dom)] -= same
	if s, restCost := fit(&hist, len(col)-same); len(col)+restCost < cost {
		s.dom, s.split = dom, true
		l = s
	}
	return l
}

// candidate returns the most frequent of the first candidateRows values
// of col, the least of those tied; how many times it occurs among them;
// how many it scanned; and the bit length of the greatest of them.
func candidate(col []uint64) (v uint64, seen, scanned, widest int) {
	var buf [candidateRows]uint64
	s := buf[:copy(buf[:], col)]
	if len(s) == 0 {
		return 0, 0, 0, 0
	}
	slices.Sort(s)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i > seen {
			v, seen = s[i], j-i
		}
		i = j
	}
	return v, seen, len(s), bits.Len64(s[len(s)-1])
}

// bitLengths returns how many values of col have each bit length and,
// when count is set, how many equal v.
func bitLengths(col []uint64, v uint64, count bool) (hist [65]int, same int) {
	// Four histograms, each counting every fourth row, let consecutive
	// increments of one length overlap.
	var h [4][65]int
	differ, i := 0, 0
	for ; i+3 < len(col); i += 4 {
		h[0][bits.Len64(col[i])]++
		h[1][bits.Len64(col[i+1])]++
		h[2][bits.Len64(col[i+2])]++
		h[3][bits.Len64(col[i+3])]++
		if count {
			differ += ne(col[i], v) + ne(col[i+1], v) + ne(col[i+2], v) + ne(col[i+3], v)
		}
	}
	for ; i < len(col); i++ {
		h[0][bits.Len64(col[i])]++
		if count {
			differ += ne(col[i], v)
		}
	}
	for b := range hist {
		hist[b] = h[0][b] + h[1][b] + h[2][b] + h[3][b]
	}
	return hist, len(col) - differ
}

// ne returns 1 when a and b differ and 0 when they are equal, without a
// branch.
func ne(a, b uint64) int {
	x := a ^ b
	return int((x | -x) >> 63)
}

// fit returns the layout that packs rows values, hist[b] of which have
// bit length b, at the width that takes the fewest bits, and how many
// bits that is. Each value outside the width costs excRowBits plus its
// high bits: as many as the longest value has above the width, which
// may be at most maxHigh.
func fit(hist *[65]int, rows int) (l colLayout, cost int) {
	longest := 64
	for longest > 0 && hist[longest] == 0 {
		longest--
	}
	cost, over := -1, 0 // over counts the values longer than w
	for w := longest; w >= max(longest-maxHigh, 0); w-- {
		if c := rows*w + over*(excRowBits+longest-w); cost < 0 || c <= cost {
			cost = c
			l = colLayout{rest: uint16(rows), exc: uint16(over), width: uint8(w), high: uint8(longest - w)}
		}
		over += hist[w]
	}
	return l, cost
}

// split sets the bits of bitmap for the rows of col equal to dom, from
// each word's least significant bit, and moves the other values, in
// order, to the front of col.
func split(bitmap, col []uint64, dom uint64) {
	k := 0 // the next rest row
	for j := range bitmap {
		rows := col[j*64 : min(j*64+64, len(col))]
		same := under(rows, dom, 1)
		bitmap[j] = same & (uint64(1)<<len(rows) - 1)
		for rest := ^same; rest != 0; rest &= rest - 1 {
			col[k] = rows[bits.TrailingZeros64(rest)]
			k++
		}
	}
}

// unitValues returns how many values of w bits, 0 < w < 64, pack and
// unpack move as one unit of at most 63 bits: a unit's values are joined
// or split with shifts that do not wait for each other, and only whole
// units pass through the accumulator, each step of which waits for the
// previous one.
func unitValues(w uint) int { return int(63 / w) }

// pack writes the low w bits of each value of col into dst, in order
// from each word's least significant bit.
func pack(dst, col []uint64, w uint) {
	switch w {
	case 0:
		return
	case 64:
		copy(dst, col)
		return
	}
	mask, g := uint64(1)<<w-1, unitValues(w)
	var out bitWriter
	for i := 0; i < len(col); {
		var unit uint64
		size := uint(0)
		for end := min(i+g, len(col)); i < end; i++ {
			unit |= (col[i] & mask) << (size & 63)
			size += w
		}
		out = out.write(dst, unit, size)
	}
	out.flush(dst)
}

// except writes the exceptions of col, its values outside [0, 2^w),
// w < 64, into dst: each one's row, and above it its bits above w, in
// excRowBits+high bits. pack has stored their low w bits.
func except(dst, col []uint64, w, high uint) {
	var out bitWriter
	for i := 0; i < len(col); i += 64 {
		rows := col[i:min(i+64, len(col))]
		for outside := ^under(rows, 0, 1<<w); outside != 0; outside &= outside - 1 {
			row := bits.TrailingZeros64(outside)
			out = out.write(dst, uint64(i+row)|rows[row]>>w<<excRowBits, excRowBits+high)
		}
	}
	out.flush(dst)
}

// under returns a word whose bit b is set when rows[b]^x < limit, for at
// most 64 rows, and whose bits past the rows are set: under(rows, 0,
// limit) marks the rows below limit and under(rows, v, 1) those equal to
// v. It takes no branch per row: each row's borrow is added into the
// word as it doubles, from the last row to the first.
//
// Inlined, its word would be kept on the stack, not in a register.
//
//go:noinline
func under(rows []uint64, x, limit uint64) uint64 {
	set := ^uint64(0)
	i := len(rows)
	for ; i >= 4; i -= 4 {
		r := rows[i-4 : i]
		_, borrow := bits.Sub64(r[3]^x, limit, 0)
		set, _ = bits.Add64(set, set, borrow)
		_, borrow = bits.Sub64(r[2]^x, limit, 0)
		set, _ = bits.Add64(set, set, borrow)
		_, borrow = bits.Sub64(r[1]^x, limit, 0)
		set, _ = bits.Add64(set, set, borrow)
		_, borrow = bits.Sub64(r[0]^x, limit, 0)
		set, _ = bits.Add64(set, set, borrow)
	}
	for ; i > 0; i-- {
		_, borrow := bits.Sub64(rows[i-1]^x, limit, 0)
		set, _ = bits.Add64(set, set, borrow)
	}
	return set
}

// bitWriter writes units of at most 63 bits to consecutive words, from
// each word's least significant bit. It is passed by value, so that it
// stays in registers.
type bitWriter struct {
	acc  uint64 // the bits of dst[j] written so far
	fill uint   // how many bits acc holds
	j    int
}

// write writes the size bits of unit < 2^size, size < 64, to dst. It
// stores the word in progress; flush stores the last.
func (b bitWriter) write(dst []uint64, unit uint64, size uint) bitWriter {
	// Store the word in progress after every unit and select the next
	// word's first bits arithmetically: where words fill up follows no
	// pattern a branch predictor learns.
	b.acc |= unit << (b.fill & 63)
	dst[b.j] = b.acc
	b.fill += size
	full := -uint64(b.fill >> 6) // all ones when the unit filled dst[j]
	b.acc = b.acc&^full | unit>>((size-b.fill)&63)&full
	b.j += int(b.fill >> 6)
	b.fill &= 63
	return b
}

// flush stores the bits that the last write carried into a new word.
func (b bitWriter) flush(dst []uint64) {
	if b.fill > 0 {
		dst[b.j] = b.acc
	}
}

// bitReader reads what a bitWriter wrote.
type bitReader struct {
	src  []uint64
	j    int
	fill uint // the bits of src[j] read
}

// read returns the next w < 64 bits.
func (b *bitReader) read(w uint) uint64 {
	// Bits from the next word land above w when src[j] holds all w, and
	// src[j] has no next word only then. Shifting by one and then by
	// 63-fill shifts by 64-fill without a branch: a fill of 0 takes none.
	v := b.src[b.j]>>b.fill | b.src[min(b.j+1, len(b.src)-1)]<<1<<((63-b.fill)&63)
	end := b.fill + w
	b.j += int(end >> 6)
	b.fill = end & 63
	return v & (uint64(1)<<w - 1)
}

// column decodes column c of ch into dst, which holds ch.n values. A
// split column's rest rows are decoded into the tail of dst and expanded
// in place.
func (ch *chunk) column(c int, dst []uint64) {
	start := 0
	for p := range c {
		start += ch.cols[p].words(ch.n)
	}
	data, l := ch.data[start:], &ch.cols[c]
	var bitmap []uint64
	if l.split {
		bitmap, data = data[:packedWords(ch.n, 1)], data[packedWords(ch.n, 1):]
	}
	rest, w := dst[ch.n-int(l.rest):], uint(l.width)
	m := packedWords(len(rest), int(w))
	unpack(rest, data[:m], w)
	in := bitReader{src: data[m:]}
	for range l.exc {
		e := in.read(uint(l.excBits()))
		rest[e&(1<<excRowBits-1)] |= e >> excRowBits << w
	}
	if l.split {
		expand(dst, bitmap, l.dom, ch.n-int(l.rest))
	}
}

// expand fills dst forward from dst[k:], which holds, in order, the
// rows bitmap leaves clear: a row bitmap sets becomes dom, and each other
// row takes the next of those values. It reads the values each bitmap
// word's rows take before it writes those rows, and the values still
// unread lie past them.
func expand(dst, bitmap []uint64, dom uint64, k int) {
	var taken [64]uint64
	for j, word := range bitmap {
		rows := dst[j*64 : min(j*64+64, len(dst))]
		rest := ^word & (uint64(1)<<len(rows) - 1)
		m := copy(taken[:bits.OnesCount64(rest)], dst[k:])
		k += m
		for i := range rows {
			rows[i] = dom
		}
		for i := 0; rest != 0; rest &= rest - 1 {
			rows[bits.TrailingZeros64(rest)] = taken[i]
			i++
		}
	}
}

// unpack reads len(dst) values of w bits from src, as pack wrote them.
func unpack(dst, src []uint64, w uint) {
	switch w {
	case 0:
		clear(dst)
		return
	case 64:
		copy(dst, src)
		return
	}
	mask, g := uint64(1)<<w-1, unitValues(w)
	var acc uint64 // the unread bits of src[j-1]
	fill, j := uint(0), 0
	for i := 0; i < len(dst); i += g {
		vals := dst[i:min(i+g, len(dst))]
		size := uint(len(vals)) * w
		var unit uint64
		if fill >= size {
			unit = acc
			acc >>= size
			fill -= size
		} else {
			next := src[j]
			j++
			unit = acc | next<<fill
			acc = next >> (size - fill)
			fill += 64 - size
		}
		for m := range vals {
			vals[m] = unit & mask
			unit >>= w
		}
	}
}
