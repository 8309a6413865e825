package sax

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestAppendCodeMatchesAppend: a pipeline fed packed codes (the encoder's
// path), one fed word bytes, and one fed either at random hold identical
// tokens, ids, State and Compact results, across Reset and RestoreSeq, and
// their State is the numerosity reduction of the words fed, computed
// independently by the test.
func TestAppendCodeMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, p := range []Params{{W: 1, A: 2}, {W: 4, A: 5}, {W: 12, A: 26}} {
		mr, err := NewMultiResolver(p.A)
		if err != nil {
			t.Fatal(err)
		}
		// A small vocabulary of interval vectors, so words recur and runs
		// form.
		vocab := make([][]int, 8)
		for i := range vocab {
			vocab[i] = make([]int, p.W)
			for j := range vocab[i] {
				vocab[i][j] = rng.Intn(len(mr.merged) + 1)
			}
		}
		byWord, byCode, mixed := NewIncrementalSeq(p, 0), NewIncrementalSeq(p, 0), NewIncrementalSeq(p, 0)
		// The reference: every token since the last reset, and the run.
		var ref []Token
		refPrev := ""
		check := func(stage string) {
			t.Helper()
			want := byWord.State()
			if want.Empty != (len(ref) == 0) || (len(ref) > 0 && want.Prev != refPrev) {
				t.Fatalf("%v %s: run head %q (empty %v), reference %q", p, stage, want.Prev, want.Empty, refPrev)
			}
			if len(want.Tokens) > 0 {
				k := len(ref) - 1
				for k > 0 && ref[k].Pos > want.Tokens[0].Pos {
					k--
				}
				if !reflect.DeepEqual(want.Tokens, ref[k:]) {
					t.Fatalf("%v %s: tokens differ from the reference numerosity reduction", p, stage)
				}
			}
			for name, s := range map[string]*IncrementalSeq{"AppendCode": byCode, "mixed": mixed} {
				if !reflect.DeepEqual(s.tokens, byWord.tokens) || s.prev != byWord.prev || s.VocabLen() != byWord.VocabLen() {
					t.Fatalf("%v %s: %s pipeline's tokens or ids differ from Append's", p, stage, name)
				}
				if got := s.State(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %s: %s pipeline's State differs from Append's", p, stage, name)
				}
			}
		}
		word := make([]byte, p.W)
		iv := vocab[0]
		for round := 0; round < 9; round++ {
			for i := 0; i < 300; i++ {
				if rng.Intn(3) == 0 {
					iv = vocab[rng.Intn(len(vocab))]
				}
				if err := mr.WordAt(iv, p.A, word); err != nil {
					t.Fatal(err)
				}
				code := mr.CodeAt(iv, p.A)
				if len(ref) == 0 || string(word) != refPrev {
					refPrev = string(word)
					ref = append(ref, Token{Word: refPrev, Pos: byWord.NextWin()})
				}
				byWord.Append(word)
				byCode.AppendCode(code)
				if rng.Intn(2) == 0 {
					mixed.Append(word)
				} else {
					mixed.AppendCode(code)
				}
			}
			check("after appends")
			all := []*IncrementalSeq{byWord, byCode, mixed}
			switch round % 3 {
			case 0:
				for _, s := range all {
					s.TrimBefore(s.NextWin() - 40)
					s.Compact()
				}
				check("after Compact")
			case 1:
				for _, s := range all {
					s.Reset(s.NextWin() + 5)
				}
				ref = ref[:0]
				check("after Reset")
			case 2:
				byWord, byCode, mixed = RestoreSeq(byWord.State()), RestoreSeq(byCode.State()), RestoreSeq(mixed.State())
				check("after RestoreSeq")
			}
		}
	}
}
