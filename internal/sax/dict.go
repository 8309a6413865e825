package sax

import "egi/internal/idmap"

// MaxPackedW is the longest word a pipeline's dictionary keys by its packed
// code: 12 symbols of 5 bits fill 60 of a uint64's bits. Every word of the
// paper's parameter grid (WMax = 10) is packed.
const MaxPackedW = 12

// wordDict is one pipeline's dictionary: word to dense int32 id and back.
// All words of a pipeline have the same length w and symbols 'a'..'z'. A
// dictionary for w <= MaxPackedW keys each word by its packed code in a
// flat open-addressing table (internal/idmap, shared with Sequitur's
// digram index), so a lookup hashes one integer and probes a slot array
// without following a pointer, and it stores no strings at all; longer
// words fall back to a string-keyed map.
type wordDict struct {
	w      int
	byCode idmap.Map        // packed words
	codes  []uint64         // id -> code, packed words
	byWord map[string]int32 // longer words
	words  []string         // id -> word, longer words
	bytes  int64            // total len over words, longer words
}

func newWordDict(w int) wordDict {
	if w <= MaxPackedW {
		return wordDict{w: w}
	}
	return wordDict{w: w, byWord: make(map[string]int32)}
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

func (d *wordDict) len() int {
	if d.packed() {
		return len(d.codes)
	}
	return len(d.words)
}

// idOfCode returns the id of the packed word code, adding it if it is new.
// It never allocates in steady state.
func (d *wordDict) idOfCode(code uint64) int32 {
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

// word renders id back into its word.
func (d *wordDict) word(id int32) string {
	if !d.packed() {
		return d.words[id]
	}
	b := make([]byte, d.w)
	for i, code := d.w-1, d.codes[id]; i >= 0; i, code = i-1, code>>5 {
		b[i] = byte(code&31) + 'a' - 1
	}
	return string(b)
}

// emptied returns an empty dictionary that takes over d's tables, cleared.
// d keeps its id slices, so copyFrom can still read its words.
func (d *wordDict) emptied() wordDict {
	d.byCode.Clear()
	clear(d.byWord)
	return wordDict{w: d.w, byCode: d.byCode, byWord: d.byWord}
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

// memoryBytes is the dictionary's retained-memory accounting: for packed
// words the code table's slots and the id slice at capacity, for longer
// words the per-entry estimate plus the word bytes. O(1).
func (d *wordDict) memoryBytes() int64 {
	if d.packed() {
		return d.byCode.MemoryBytes() + int64(cap(d.codes))*8
	}
	return int64(len(d.words))*wordEntrySize + d.bytes
}
