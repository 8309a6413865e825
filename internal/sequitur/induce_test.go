package sequitur

// Induce runs Sequitur over the token sequence in one call and returns the
// frozen grammar: the string-fed loop the Builder grew out of, kept as the
// test oracle the golden digest and the id-fed fuzzers compare against.
func Induce(tokens []string) (*Grammar, error) {
	if len(tokens) == 0 {
		return nil, ErrEmptyInput
	}
	b := newBuilder(len(tokens))
	for _, tok := range tokens {
		b.push(b.internWord(tok))
	}
	return b.freeze(), nil
}
