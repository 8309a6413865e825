package sax

import (
	"math"

	"egi/internal/idmap"
)

// MaxPackedW is the longest word a pipeline handles as a packed code: 12
// symbols of 5 bits fill 60 of a uint64's bits. Every word of the paper's
// parameter grid (WMax = 10) is packed. A packed word whose alphabet size a
// keeps a^w within 2^31 needs no dictionary at all: its id is its radix-a
// value (see wordDict).
const MaxPackedW = 12

// wordDict is one pipeline's word numbering: word to int32 id and back. All
// words of a pipeline have the same length w and symbols 'a'..'z'. Three
// kinds share the type, chosen by the pipeline's parameters:
//
//   - direct (w <= MaxPackedW and a^w <= 2^31, 79 of the paper grid's 81
//     members): a word's id is its radix-a value, first symbol most
//     significant, 'a' = 0. Computing it needs no table, so the
//     dictionary holds nothing and ids never change.
//   - packed (w <= MaxPackedW otherwise): a word is keyed by its packed
//     code in a flat open-addressing table (internal/idmap, shared with
//     Sequitur's digram index), and ids are dense in order of first use.
//   - longer words fall back to a string-keyed map, ids dense likewise.
type wordDict struct {
	w, a   int
	direct bool
	byCode idmap.Map        // packed words
	codes  []uint64         // id -> code, packed words
	byWord map[string]int32 // longer words
	words  []string         // id -> word, longer words
	bytes  int64            // total len over words, longer words
}

// isDirect reports whether words of p's parameters take their radix value
// as id: w <= MaxPackedW and a^w <= 2^31, so every value fits an int32.
func isDirect(p Params) bool {
	if p.W > MaxPackedW {
		return false
	}
	v := 1
	for i := 0; i < p.W; i++ {
		v *= p.A
	}
	return v <= math.MaxInt32+1
}

func newWordDict(p Params) wordDict {
	switch {
	case isDirect(p):
		return wordDict{w: p.W, a: p.A, direct: true}
	case p.W <= MaxPackedW:
		return wordDict{w: p.W, a: p.A}
	}
	return wordDict{w: p.W, a: p.A, byWord: make(map[string]int32)}
}

func (d *wordDict) packed() bool { return d.w <= MaxPackedW }

// pack maps a word to its code: 5 bits per symbol, 'a' as 1. A code is
// never idmap.Empty: its top four bits stay zero.
func pack(word []byte) uint64 {
	var code uint64
	for _, c := range word {
		code = code<<5 | uint64(c-'a'+1)&31
	}
	return code
}

// len returns the number of words the dictionary stores: 0 for a direct
// one, which stores none.
func (d *wordDict) len() int {
	if d.packed() {
		return len(d.codes)
	}
	return len(d.words)
}

// idOfCode returns the id of the packed word code, adding it if it is new.
// It never allocates in steady state.
func (d *wordDict) idOfCode(code uint64) int32 {
	if d.direct {
		a, v := uint64(d.a), uint64(0)
		for shift := 5 * (d.w - 1); shift >= 0; shift -= 5 {
			v = v*a + (code>>shift)&31 - 1
		}
		return int32(v)
	}
	id, ok := d.byCode.GetOrPut(code, int32(len(d.codes)))
	if !ok {
		d.codes = append(d.codes, code)
	}
	return id
}

// id returns word's id, adding the word if it is new. Only a new word of
// more than MaxPackedW symbols allocates.
func (d *wordDict) id(word []byte) int32 {
	if d.packed() {
		return d.idOfCode(pack(word))
	}
	if id, ok := d.byWord[string(word)]; ok {
		return id
	}
	return d.addWord(string(word))
}

func (d *wordDict) addWord(word string) int32 {
	id := int32(len(d.words))
	d.words = append(d.words, word)
	d.byWord[word] = id
	d.bytes += int64(len(word))
	return id
}

// code returns the packed code of id's word.
func (d *wordDict) code(id int32) uint64 {
	if !d.direct {
		return d.codes[id]
	}
	var code uint64
	for i, v := 0, uint64(id); i < d.w; i, v = i+1, v/uint64(d.a) {
		code |= (v%uint64(d.a) + 1) << (5 * i)
	}
	return code
}

// word renders id back into its word.
func (d *wordDict) word(id int32) string {
	if !d.packed() {
		return d.words[id]
	}
	b := make([]byte, d.w)
	for i, code := d.w-1, d.code(id); i >= 0; i, code = i-1, code>>5 {
		b[i] = byte(code&31) + 'a' - 1
	}
	return string(b)
}

// emptied returns an empty dictionary that takes over d's tables, cleared.
// d keeps its id slices, so copyFrom can still read its words.
func (d *wordDict) emptied() wordDict {
	d.byCode.Clear()
	clear(d.byWord)
	return wordDict{w: d.w, a: d.a, byCode: d.byCode, byWord: d.byWord}
}

// copyFrom adds old's word id to d and returns its id in d.
func (d *wordDict) copyFrom(old *wordDict, id int32) int32 {
	if d.packed() {
		return d.idOfCode(old.codes[id])
	}
	return d.addWord(old.words[id])
}

// wordEntrySize is memoryBytes' per-entry accounting of a string entry: a
// string header plus its map slot, map overhead included, excluding the
// word bytes.
const wordEntrySize = 48

// memoryBytes is the dictionary's retained-memory accounting: nothing for
// a direct dictionary, for packed words the code table's slots and the id
// slice at capacity, for longer words the per-entry estimate plus the word
// bytes. O(1).
func (d *wordDict) memoryBytes() int64 {
	if d.packed() {
		return d.byCode.MemoryBytes() + int64(cap(d.codes))*8
	}
	return int64(len(d.words))*wordEntrySize + d.bytes
}
