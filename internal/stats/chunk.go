package stats

import "math/bits"

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

// excBits is what one value outside its column's width costs a chunk: a
// uint16 row and the uint64 value.
const excBits = 16 + 64

// chunk is n sealed samples in one exact-size allocation. Each column c
// packs the low width[c] bits of every value into consecutive words (a
// patched frame of reference with base 0): a value outside
// [0, 2^width[c]) is an exception, whose row and value are kept apart.
// data holds the packed columns in column order, then the exceptions'
// values in column and row order, then their rows, four uint16s to a
// word.
type chunk struct {
	n     int
	width [numCols]uint8
	// exc counts each column's exceptions.
	exc  [numCols]uint16
	data []uint64
}

// packedWords returns how many words n values of w bits fill.
func packedWords(n, w int) int { return (n*w + 63) / 64 }

// sealChunk packs the n = len(cols[c]) staged values of each column into
// a chunk, choosing each column's width from its own values.
func sealChunk(cols *[numCols][]uint64) chunk {
	n := len(cols[0])
	ch := chunk{n: n}
	words, excs := 0, 0
	for c, col := range cols {
		w, e := fit(col)
		ch.width[c], ch.exc[c] = uint8(w), uint16(e)
		words += packedWords(n, w)
		excs += e
	}
	ch.data = make([]uint64, words+excs+(excs+3)/4)
	packed, vals, rows := ch.data[:words], ch.data[words:words+excs], ch.data[words+excs:]
	k := 0
	for c, col := range cols {
		w := uint(ch.width[c])
		pack(packed[:packedWords(n, int(w))], col, w)
		packed = packed[packedWords(n, int(w)):]
		if ch.exc[c] > 0 {
			k = except(col, w, vals, rows, k)
		}
	}
	return ch
}

// fit returns the width that packs col into the fewest bits, charging
// excBits for each value outside it, and how many values lie outside.
func fit(col []uint64) (width, exceptions int) {
	// hist[b] counts the values of bit length b. Four histograms, each
	// counting every fourth row, let consecutive increments of one length
	// overlap.
	var hist [4][65]int
	i := 0
	for ; i+3 < len(col); i += 4 {
		hist[0][bits.Len64(col[i])]++
		hist[1][bits.Len64(col[i+1])]++
		hist[2][bits.Len64(col[i+2])]++
		hist[3][bits.Len64(col[i+3])]++
	}
	for ; i < len(col); i++ {
		hist[0][bits.Len64(col[i])]++
	}
	best, over := -1, 0 // over counts the values longer than w
	for w := 64; w >= 0; w-- {
		if cost := len(col)*w + excBits*over; best < 0 || cost <= best {
			best, width, exceptions = cost, w, over
		}
		over += hist[0][w] + hist[1][w] + hist[2][w] + hist[3][w]
	}
	return width, exceptions
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
	var acc uint64 // the bits of dst[j] written so far
	fill, j := uint(0), 0
	for i := 0; i < len(col); {
		var unit uint64
		size := uint(0)
		for end := min(i+g, len(col)); i < end; i++ {
			unit |= (col[i] & mask) << (size & 63)
			size += w
		}
		// Store the word in progress after every unit and select the next
		// word's first bits arithmetically: where words fill up follows no
		// pattern a branch predictor learns.
		acc |= unit << (fill & 63)
		dst[j] = acc
		fill += size
		full := -uint64(fill >> 6) // all ones when the unit filled dst[j]
		acc = acc&^full | unit>>((size-fill)&63)&full
		j += int(fill >> 6)
		fill &= 63
	}
	if fill > 0 {
		dst[j] = acc
	}
}

// except appends the rows and values of col outside [0, 2^w), w < 64, to
// the exception lists at k and returns the next k. pack has stored their
// low w bits, which column overwrites.
func except(col []uint64, w uint, vals, rows []uint64, k int) int {
	limit := uint64(1) << w
	for i, v := range col {
		if v >= limit {
			vals[k] = v
			rows[k/4] |= uint64(i) << (16 * (k % 4))
			k++
		}
	}
	return k
}

// column decodes column c of ch into dst, which holds ch.n values.
func (ch *chunk) column(c int, dst []uint64) {
	start, words, first, excs := 0, 0, 0, 0
	for p := range numCols {
		if p == c {
			start, first = words, excs
		}
		words += packedWords(ch.n, int(ch.width[p]))
		excs += int(ch.exc[p])
	}
	w := int(ch.width[c])
	unpack(dst, ch.data[start:start+packedWords(ch.n, w)], uint(w))
	vals, rows := ch.data[words:words+excs], ch.data[words+excs:]
	for k := first; k < first+int(ch.exc[c]); k++ {
		dst[rows[k/4]>>(16*(k%4))&0xffff] = vals[k]
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
