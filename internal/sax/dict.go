package sax

// maxPackedW is the longest word a dictionary keys by its packed code: 12
// symbols of 5 bits fill 60 of a uint64's bits. Every word of the paper's
// parameter grid (WMax = 10) is packed.
const maxPackedW = 12

// wordDict is one pipeline's dictionary: word to dense int32 id and back.
// All words of a pipeline have the same length w and symbols 'a'..'z'. A
// dictionary for w <= maxPackedW keys each word by its packed code, so a
// lookup hashes one integer and compares keys without following a pointer,
// and it stores no strings at all; longer words fall back to a
// string-keyed map.
type wordDict struct {
	w      int
	byCode map[uint64]int32 // packed words
	codes  []uint64         // id -> code, packed words
	byWord map[string]int32 // longer words
	words  []string         // id -> word, longer words
	bytes  int64            // total len over words, longer words
}

func newWordDict(w int) wordDict {
	if w <= maxPackedW {
		return wordDict{w: w, byCode: make(map[uint64]int32)}
	}
	return wordDict{w: w, byWord: make(map[string]int32)}
}

func (d *wordDict) packed() bool { return d.byCode != nil }

// pack maps a word to its code: 5 bits per symbol, 'a' as 1.
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

// is reports whether id stands for word.
func (d *wordDict) is(id int32, word []byte) bool {
	if d.packed() {
		return d.codes[id] == pack(word)
	}
	return d.words[id] == string(word)
}

// id returns word's id, adding the word if it is new. Only a new word of
// more than maxPackedW symbols allocates.
func (d *wordDict) id(word []byte) int32 {
	if d.packed() {
		code := pack(word)
		if id, ok := d.byCode[code]; ok {
			return id
		}
		return d.addCode(code)
	}
	if id, ok := d.byWord[string(word)]; ok {
		return id
	}
	return d.addWord(string(word))
}

func (d *wordDict) addCode(code uint64) int32 {
	id := int32(len(d.codes))
	d.codes = append(d.codes, code)
	d.byCode[code] = id
	return id
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

// emptied returns an empty dictionary that takes over d's maps, cleared.
// d keeps its id slices, so copyFrom can still read its words.
func (d *wordDict) emptied() wordDict {
	clear(d.byCode)
	clear(d.byWord)
	return wordDict{w: d.w, byCode: d.byCode, byWord: d.byWord}
}

// copyFrom adds old's word id to d and returns its id in d.
func (d *wordDict) copyFrom(old *wordDict, id int32) int32 {
	if d.packed() {
		return d.addCode(old.codes[id])
	}
	return d.addWord(old.words[id])
}

// Per-entry accounting for memoryBytes: a packed entry is a code in the
// id slice plus its map slot; a string entry is a string header plus its
// map slot, excluding the word bytes. Map overhead is included.
const (
	packedEntrySize = 32
	wordEntrySize   = 48
)

// memoryBytes is the dictionary's retained-memory accounting. O(1).
func (d *wordDict) memoryBytes() int64 {
	if d.packed() {
		return int64(len(d.codes)) * packedEntrySize
	}
	return int64(len(d.words))*wordEntrySize + d.bytes
}
