package sax

import (
	"math/rand"
	"reflect"
	"strings"
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
				byWord, byCode, mixed = restore(t, byWord), restore(t, byCode), restore(t, mixed)
				check("after RestoreSeq")
			}
		}
	}
}

// restore round-trips a pipeline through State and RestoreSeq.
func restore(t *testing.T, s *IncrementalSeq) *IncrementalSeq {
	t.Helper()
	r, err := RestoreSeq(s.State())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDirectWordIDs: a pipeline of up to MaxPackedW symbols whose a^w is at
// most 2^31 keeps no dictionary and numbers each word by its radix-a value
// (first symbol most significant, 'a' = 0); every other pipeline keeps a
// dictionary with dense ids. Either way ids round-trip through Words,
// Intern and RestoreSeq.
func TestDirectWordIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for w := 1; w <= MaxPackedW; w++ {
		for a := 2; a <= MaxAlphabet; a++ {
			p := Params{W: w, A: a}
			size := uint64(1)
			for i := 0; i < w; i++ {
				size *= uint64(a)
			}
			direct := size <= 1<<31
			switch p {
			case Params{W: 9, A: 10}, Params{W: 6, A: 26}:
				if !direct {
					t.Fatalf("%v: want a direct pipeline", p)
				}
			case Params{W: 10, A: 10}, Params{W: 7, A: 26}:
				if direct {
					t.Fatalf("%v: want a dictionary pipeline", p)
				}
			}
			// The lowest and highest words, then random ones.
			words := []string{strings.Repeat("a", w), strings.Repeat(string(rune('a'+a-1)), w)}
			for i := 0; i < 6; i++ {
				b := make([]byte, w)
				for j := range b {
					b[j] = byte('a' + rng.Intn(a))
				}
				words = append(words, string(b))
			}
			seq := NewIncrementalSeq(p, 0)
			for _, word := range words {
				seq.Append([]byte(word))
			}
			toks, err := seq.Covering(0, seq.NextWin()-1)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int32, len(toks))
			for i, tk := range toks {
				ids[i] = tk.ID
				word := seq.Words([]int32{tk.ID})[0]
				if got := seq.Intern(word); got != tk.ID {
					t.Fatalf("%v: Intern(%q) = %d, token id %d", p, word, got, tk.ID)
				}
				if !direct {
					continue
				}
				var radix uint64
				for _, c := range []byte(word) {
					radix = radix*uint64(a) + uint64(c-'a')
				}
				if uint64(tk.ID) != radix {
					t.Fatalf("%v: %q has id %d, want its radix value %d", p, word, tk.ID, radix)
				}
			}
			if direct != (seq.VocabLen() == 0) {
				t.Fatalf("%v: direct %v but vocabulary %d", p, direct, seq.VocabLen())
			}
			if direct && (ids[0] != 0 || uint64(ids[1]) != size-1) {
				t.Fatalf("%v: lowest and highest words have ids %d, %d, want 0, %d", p, ids[0], ids[1], size-1)
			}
			back := restore(t, seq)
			if !reflect.DeepEqual(back.State(), seq.State()) || !reflect.DeepEqual(back.tokens, seq.tokens) {
				t.Fatalf("%v: RestoreSeq does not reproduce the pipeline", p)
			}
			if !reflect.DeepEqual(back.Words(ids), seq.Words(ids)) {
				t.Fatalf("%v: restored pipeline renders ids differently", p)
			}
		}
	}
}

// TestTokensPastTwoToThe32: token positions are int32 offsets from the
// pipeline's base, so a pipeline far into a stream keeps global positions
// exact through TrimBefore, Covering, Suffix, State and RestoreSeq, and
// matches one fed the same words near zero, shifted.
func TestTokensPastTwoToThe32(t *testing.T) {
	const shift = 1<<32 + 7
	rng := rand.New(rand.NewSource(32))
	for _, p := range []Params{{W: 4, A: 5}, {W: 10, A: 10}, {W: 13, A: 3}} {
		near, far := NewIncrementalSeq(p, 3), NewIncrementalSeq(p, shift+3)
		word := make([]byte, p.W)
		same := func(stage string) {
			t.Helper()
			a, b := near.State(), far.State()
			if b.Next != a.Next+shift || b.Trimmed != a.Trimmed+shift || b.Prev != a.Prev || len(b.Tokens) != len(a.Tokens) {
				t.Fatalf("%v %s: far pipeline's state does not match the near one's", p, stage)
			}
			for i := range a.Tokens {
				if b.Tokens[i].Word != a.Tokens[i].Word || b.Tokens[i].Pos != a.Tokens[i].Pos+shift {
					t.Fatalf("%v %s: token %d at %d, want %d", p, stage, i, b.Tokens[i].Pos, a.Tokens[i].Pos+shift)
				}
			}
			lo := a.Trimmed + 1 + rng.Intn(a.Next-a.Trimmed-1)
			hi := lo + rng.Intn(a.Next-lo)
			for _, get := range []func(s *IncrementalSeq, lo, hi int) ([]IDToken, error){
				(*IncrementalSeq).Covering, (*IncrementalSeq).Suffix,
			} {
				ta, err := get(near, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				tb, err := get(far, lo+shift, hi+shift)
				if err != nil {
					t.Fatal(err)
				}
				if len(ta) != len(tb) {
					t.Fatalf("%v %s: %d tokens in [%d,%d], far pipeline %d", p, stage, len(ta), lo, hi, len(tb))
				}
				for i := range ta {
					if far.Pos(tb[i]) != near.Pos(ta[i])+shift {
						t.Fatalf("%v %s: token at %d, want %d", p, stage, far.Pos(tb[i]), near.Pos(ta[i])+shift)
					}
				}
			}
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < 200; i++ {
				if rng.Intn(3) == 0 {
					for j := range word {
						word[j] = byte('a' + rng.Intn(2))
					}
				}
				near.Append(word)
				far.Append(word)
			}
			same("after appends")
			cut := near.NextWin() - 50 - rng.Intn(50)
			near.TrimBefore(cut)
			far.TrimBefore(cut + shift)
			same("after TrimBefore")
			near, far = restore(t, near), restore(t, far)
			same("after RestoreSeq")
		}
	}
}

// TestTokenOffsetLimit: a window 2^31 or more past the oldest retained
// token has no int32 offset, so the encoder refuses to reach it and a
// direct Append panics rather than wrap; trimming the old token away makes
// room again.
func TestTokenOffsetLimit(t *testing.T) {
	p := Params{W: 2, A: 3}
	st := SeqState{Params: p, Next: 1<<31 + 10, Prev: "ab", Tokens: []Token{{Word: "ab", Pos: 0}, {Word: "ba", Pos: 100}, {Word: "ab", Pos: 200}}}
	seq, err := RestoreSeq(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.reach(seq.NextWin()); err == nil {
		t.Fatal("reach: want an error for a window 2^31 past the oldest token")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Append past the offset range did not panic")
			}
		}()
		seq.Append([]byte("bb"))
	}()
	seq.TrimBefore(150)
	seq.Append([]byte("bb"))
	toks, err := seq.Suffix(seq.NextWin()-2, seq.NextWin()-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || seq.Pos(toks[0]) != 1<<31+10 {
		t.Fatalf("after trimming: tokens %v, want one at %d", toks, 1<<31+10)
	}
	st.Tokens[2].Pos = 1 << 31
	if _, err := RestoreSeq(st); err == nil {
		t.Fatal("RestoreSeq: want an error for tokens 2^31 apart")
	}
}
