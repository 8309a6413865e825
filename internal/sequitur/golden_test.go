package sequitur

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// grammarGoldenSHA256 is the digest of goldenDump. It pins the exact
// output of induction — rule right-hand sides, use counts, the live rule
// ids the Builder assigns and the order in which it visits occurrences —
// so a rewrite of the induction internals must reproduce the algorithm
// symbol for symbol, not merely an equivalent grammar.
const grammarGoldenSHA256 = "a767bef10135e35b1ec6b96462096cb9746528571b372b72ccc8f9eaef7d1982"

// goldenWord renders symbol i of the golden sequences as a token.
func goldenWord(i int) string { return string(rune('a' + i)) }

// dumpGrammar writes every rule of g (terminals resolved) with its use
// count.
func dumpGrammar(h hash.Hash, g *Grammar) {
	for i, r := range g.Rules {
		fmt.Fprintf(h, "R%d uses=%d:", i, r.Uses)
		for _, s := range r.RHS {
			if s.IsRule() {
				fmt.Fprintf(h, " R%d", s.Rule)
			} else {
				fmt.Fprintf(h, " %s", g.Words[s.Term])
			}
		}
		h.Write([]byte{'\n'})
	}
}

// dumpVisits writes the Builder's live occurrence list in visitation
// order.
func dumpVisits(h hash.Hash, b *Builder) {
	b.VisitOccurrencesAfter(0, func(rule, s, e int) {
		fmt.Fprintf(h, "%d[%d,%d) ", rule, s, e)
	})
	h.Write([]byte{'\n'})
}

// goldenCase dumps one token sequence: Induce's grammar and the
// occurrence list of a Builder fed the same tokens.
func goldenCase(t *testing.T, h hash.Hash, name string, tokens []string) {
	fmt.Fprintf(h, "case %s len=%d\n", name, len(tokens))
	g, err := Induce(tokens)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	dumpGrammar(h, g)
	b := NewBuilder()
	for _, tok := range tokens {
		b.Push(tok)
	}
	dumpVisits(h, b)
}

// goldenDump hashes the canonical dump of every golden case.
func goldenDump(t *testing.T) string {
	h := sha256.New()
	for _, alpha := range []int{1, 2, 3, 5, 26} {
		for _, length := range []int{1, 2, 3, 10, 1000, 20000} {
			rng := rand.New(rand.NewSource(int64(alpha*100003 + length)))
			tokens := make([]string, length)
			for i := range tokens {
				tokens[i] = goldenWord(rng.Intn(alpha))
			}
			goldenCase(t, h, fmt.Sprintf("a=%d", alpha), tokens)
		}
	}
	// The FuzzSequitur seed corpus, tokenized as the fuzz target does.
	fuzzSeeds := []struct {
		data  []byte
		alpha uint8
	}{
		{[]byte("abcdbcabcd"), 26},
		{[]byte("aaaaaaaa"), 1},
		{[]byte("abababab"), 2},
		{[]byte("xyxy zxyxy z"), 4},
		{[]byte{0, 1, 2, 0, 1, 2, 0, 1}, 3},
		{[]byte{}, 5},
	}
	for i, s := range fuzzSeeds {
		k := int(s.alpha%26) + 1
		tokens := make([]string, len(s.data))
		for j, c := range s.data {
			tokens[j] = goldenWord(int(c) % k)
		}
		if len(tokens) == 0 {
			continue // Induce rejects empty input; nothing to pin
		}
		goldenCase(t, h, fmt.Sprintf("fuzz%d", i), tokens)
	}
	// One Builder fed in chunks, visited mid-stream, then reset and fed a
	// second epoch: the rule ids of the second epoch restart at a warm
	// builder.
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder()
	for epoch := 0; epoch < 2; epoch++ {
		tokens := randTokens(rng, 3000, 3+epoch)
		for at := 0; at < len(tokens); {
			n := 1 + rng.Intn(200)
			if at+n > len(tokens) {
				n = len(tokens) - at
			}
			for _, tok := range tokens[at : at+n] {
				b.Push(tok)
			}
			at += n
			fmt.Fprintf(h, "chunk epoch=%d at=%d\n", epoch, at)
			dumpVisits(h, b)
		}
		g, err := b.Grammar()
		if err != nil {
			t.Fatal(err)
		}
		dumpGrammar(h, g)
		b.Reset()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGrammarGolden pins induction output against a fixed digest (see
// grammarGoldenSHA256).
func TestGrammarGolden(t *testing.T) {
	if got := goldenDump(t); got != grammarGoldenSHA256 {
		t.Fatalf("grammar dump digest %s, want %s", got, grammarGoldenSHA256)
	}
}
