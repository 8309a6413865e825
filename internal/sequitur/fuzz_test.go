package sequitur

import (
	"slices"
	"testing"
)

// FuzzSequitur feeds arbitrary token sequences through induction and
// asserts the two load-bearing properties on every input: the grammar's
// start-rule expansion reproduces the input exactly (losslessness), and
// the digram-uniqueness / rule-utility invariants hold. Each input byte
// becomes one token; alpha narrows the alphabet so the fuzzer explores
// repeat-heavy sequences (where rules actually form) as well as noise.
func FuzzSequitur(f *testing.F) {
	f.Add([]byte("abcdbcabcd"), uint8(26))
	f.Add([]byte("aaaaaaaa"), uint8(1))
	f.Add([]byte("abababab"), uint8(2))
	f.Add([]byte("xyxy zxyxy z"), uint8(4))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1}, uint8(3))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, alpha uint8) {
		k := int(alpha%26) + 1
		tokens := make([]string, len(data))
		for i, b := range data {
			tokens[i] = string(rune('a' + int(b)%k))
		}
		g, err := Induce(tokens)
		if len(tokens) == 0 {
			if err != ErrEmptyInput {
				t.Fatalf("empty input: got %v, want ErrEmptyInput", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Induce(%q): %v", tokens, err)
		}
		expansionEquals(t, g, tokens)
		checkInvariants(t, g)
		if got := g.ExpansionLen(0); got != len(tokens) {
			t.Fatalf("ExpansionLen(0) = %d, want %d", got, len(tokens))
		}
	})
}

// FuzzBuilderIDs is the differential check of the id-fed path: fuzz bytes
// become word ids pushed through Builder.PushID in fuzz-chosen chunks, with
// a Reset at a fuzz-chosen point, and the frozen grammar and the live
// occurrence list must match Induce over the post-reset tokens as strings —
// rule for rule (terminal ids resolved to their words), use count for use
// count, occurrence for occurrence in visitation order.
func FuzzBuilderIDs(f *testing.F) {
	f.Add([]byte("abcdbcabcd"), uint8(26), uint8(3), uint16(0))
	f.Add([]byte("aaaaaaaaaaaa"), uint8(1), uint8(1), uint16(4))
	f.Add([]byte("abababababab"), uint8(2), uint8(5), uint16(3))
	f.Add([]byte("xyxy zxyxy zxyxy z"), uint8(4), uint8(2), uint16(7))
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 0, 1}, uint8(3), uint8(4), uint16(12))
	f.Add([]byte{}, uint8(5), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, alpha, chunk uint8, resetAt uint16) {
		k := int(alpha%26) + 1
		ids := make([]int32, len(data))
		for i, c := range data {
			ids[i] = int32(int(c) % k)
		}
		cut := int(resetAt) % (len(ids) + 1)
		step := int(chunk)%16 + 1
		b := NewBuilder()
		feed := func(xs []int32) {
			for at := 0; at < len(xs); at += step {
				end := min(at+step, len(xs))
				for _, id := range xs[at:end] {
					b.PushID(id)
				}
				// Visiting between chunks exercises the live walk (and its
				// memo) on every intermediate grammar.
				b.VisitOccurrencesAfter(0, func(_, _, _ int) {})
			}
		}
		feed(ids[:cut])
		b.Reset()
		post := ids[cut:]
		feed(post)

		if got := b.Len(); got != len(post) {
			t.Fatalf("Len = %d, want %d", got, len(post))
		}
		if got := b.AppendIDs(nil); !slices.Equal(got, post) {
			t.Fatalf("AppendIDs = %v, want %v", got, post)
		}
		tokens := make([]string, len(post))
		for i, id := range post {
			tokens[i] = string(rune('a' + id))
		}
		want, err := Induce(tokens)
		got, gerr := b.Grammar()
		if len(post) == 0 {
			if err != ErrEmptyInput || gerr != ErrEmptyInput {
				t.Fatalf("empty input: Induce %v, Grammar %v; want ErrEmptyInput", err, gerr)
			}
			return
		}
		if err != nil || gerr != nil {
			t.Fatalf("Induce %v, Grammar %v", err, gerr)
		}
		if last, ok := b.LastID(); !ok || last != post[len(post)-1] {
			t.Fatalf("LastID = %d, %v; want %d", last, ok, post[len(post)-1])
		}
		if len(got.Rules) != len(want.Rules) {
			t.Fatalf("%d rules, want %d", len(got.Rules), len(want.Rules))
		}
		for i := range want.Rules {
			gr, wr := got.Rules[i], want.Rules[i]
			if gr.Uses != wr.Uses || len(gr.RHS) != len(wr.RHS) || got.ExpansionLen(i) != want.ExpansionLen(i) {
				t.Fatalf("R%d: uses %d len %d, want uses %d len %d", i, gr.Uses, len(gr.RHS), wr.Uses, len(wr.RHS))
			}
			for j, ws := range wr.RHS {
				gs := gr.RHS[j]
				if ws.IsRule() {
					if gs.Rule != ws.Rule {
						t.Fatalf("R%d[%d] = %+v, want R%d", i, j, gs, ws.Rule)
					}
				} else if gs.IsRule() || string(rune('a'+gs.Term)) != want.Words[ws.Term] {
					t.Fatalf("R%d[%d] = %+v, want terminal %q", i, j, gs, want.Words[ws.Term])
				}
			}
		}
		type occ struct{ rule, s, e int }
		var live, frozen []occ
		b.VisitOccurrencesAfter(0, func(r, s, e int) { live = append(live, occ{r, s, e}) })
		want.VisitOccurrencesAfter(0, func(r, s, e int) { frozen = append(frozen, occ{r, s, e}) })
		if len(live) != len(frozen) {
			t.Fatalf("%d live occurrences, want %d", len(live), len(frozen))
		}
		// Live rule ids are not dense; they must map onto the frozen ids
		// one to one.
		toFrozen := map[int]int{}
		for i, o := range live {
			w := frozen[i]
			if o.s != w.s || o.e != w.e {
				t.Fatalf("occurrence %d spans [%d,%d), want [%d,%d)", i, o.s, o.e, w.s, w.e)
			}
			if r, ok := toFrozen[o.rule]; ok && r != w.rule {
				t.Fatalf("live rule %d maps to frozen R%d and R%d", o.rule, r, w.rule)
			}
			toFrozen[o.rule] = w.rule
		}
	})
}
