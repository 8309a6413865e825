package idmap

import (
	"math/rand"
	"testing"
)

// keyHomedAt returns the first key at or after seed (skipping Empty) whose
// home slot in m's current slot array is slot.
func keyHomedAt(m *Map, seed uint64, slot int) uint64 {
	for k := seed; ; k++ {
		if k != Empty && m.home(k) == slot {
			return k
		}
	}
}

// checkAgainst fails unless m holds exactly ref's entries and every entry
// is reachable: no free slot lies between an entry's home and its slot.
func checkAgainst(t *testing.T, m *Map, ref map[uint64]int32, probes []uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len %d, reference %d", m.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("Get(%#x) = %d, %v; reference %d", k, got, ok, v)
		}
	}
	for _, k := range probes {
		want, wantOK := ref[k]
		if got, ok := m.Get(k); ok != wantOK || got != want {
			t.Fatalf("Get(%#x) = %d, %v; reference %d, %v", k, got, ok, want, wantOK)
		}
	}
	if _, ok := m.Get(Empty); ok {
		t.Fatal("Get(Empty) found an entry")
	}
	live, mask := 0, len(m.keys)-1
	for j, k := range m.keys {
		if k == Empty {
			continue
		}
		live++
		for i := m.home(k); i != j; i = (i + 1) & mask {
			if m.keys[i] == Empty {
				t.Fatalf("key %#x at slot %d unreachable: slot %d on its probe path is free", k, j, i)
			}
		}
	}
	if live != m.Len() {
		t.Fatalf("%d occupied slots, Len %d", live, m.Len())
	}
	if len(m.keys) > 0 && m.Len()*4 > len(m.keys)*3 {
		t.Fatalf("%d entries in %d slots exceeds the 3/4 load", m.Len(), len(m.keys))
	}
}

// run applies an operation script to a table presized from hint and to a
// reference map, checking them against each other after every operation.
// Each operation is three bytes: opcode, key selector, value.
func run(t *testing.T, hint int, ops []byte) {
	m := New(hint)
	if hint < 0 {
		m = Map{} // the zero value
	}
	ref := make(map[uint64]int32)
	var probes []uint64
	for len(ops) >= 3 {
		op, x, v := ops[0], ops[1], int32(int8(ops[2]))
		ops = ops[3:]
		k := uint64(x) * 0x100000001 // small, colliding key space
		switch op % 8 {
		case 0, 1:
			m.Set(k, v)
			ref[k] = v
		case 2:
			got, found := m.GetOrPut(k, v)
			want, wantFound := ref[k]
			if !wantFound {
				want = v
				ref[k] = v
			}
			if got != want || found != wantFound {
				t.Fatalf("GetOrPut(%#x, %d) = %d, %v; reference %d, %v", k, v, got, found, want, wantFound)
			}
		case 3, 4:
			// Delete with the stored value half the time, so both the
			// delete and the keep branch run.
			cur, ok := ref[k]
			if ok && v >= 0 {
				v = cur
			}
			want := ok && cur == v
			if got := m.DeleteIf(k, v); got != want {
				t.Fatalf("DeleteIf(%#x, %d) = %v, reference %v", k, v, got, want)
			}
			if want {
				delete(ref, k)
			}
		case 5, 6:
			// A key homed at one of the last two slots: consecutive ones
			// build a cluster that wraps past the end of the slot array,
			// and one that pushes the table over its load grows it with
			// the cluster in place.
			if len(m.keys) > 0 {
				slot := len(m.keys) - 1 - int(x&1)
				k = keyHomedAt(&m, uint64(x)<<20|uint64(len(ref)), slot)
			}
			m.Set(k, v)
			ref[k] = v
		case 7:
			if x < 32 {
				m.Clear()
				clear(ref)
			}
		}
		probes = append(probes, k)
		checkAgainst(t, &m, ref, probes)
	}
}

// FuzzIDMap checks the table against a Go map over fuzz-chosen operation
// scripts: Set, GetOrPut, DeleteIf, Clear, and insertions forced into a
// cluster that wraps past the end of the slot array, from tiny initial
// capacities so growth lands in the middle of such clusters.
func FuzzIDMap(f *testing.F) {
	// Wrapping cluster, grown mid-cluster, then deleted from the middle.
	var wrap []byte
	for i := 0; i < 24; i++ {
		wrap = append(wrap, 5+byte(i%2), byte(i), byte(i))
	}
	for i := 0; i < 24; i += 3 {
		wrap = append(wrap, 3, byte(i), 0)
	}
	f.Add(0, wrap)
	f.Add(-1, wrap)
	f.Add(1, []byte{0, 1, 1, 0, 2, 2, 3, 1, 1, 2, 1, 9, 7, 0, 0, 2, 3, 3})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 3*200)
		rng.Read(ops)
		f.Add(i*5, ops)
	}
	f.Fuzz(func(t *testing.T, hint int, ops []byte) {
		if hint > 64 {
			hint %= 64
		}
		if len(ops) > 3*512 {
			ops = ops[:3*512]
		}
		run(t, hint, ops)
	})
}

// TestWrappedClusterDeletes pins the case the fuzz target is built
// around: a cluster homed at the last slot wraps to the front, the table
// grows while it is in place, and deleting from its middle shifts the
// wrapped entries back.
func TestWrappedClusterDeletes(t *testing.T) {
	m := New(0)
	ref := make(map[uint64]int32)
	slots := len(m.keys)
	var keys []uint64
	for i := 0; i < 5; i++ {
		k := keyHomedAt(&m, uint64(i)<<32, slots-1)
		m.Set(k, int32(i))
		ref[k] = int32(i)
		keys = append(keys, k)
	}
	if m.keys[0] == Empty || m.home(m.keys[0]) != slots-1 {
		t.Fatal("cluster did not wrap past the end of the slot array")
	}
	checkAgainst(t, &m, ref, nil)
	if !m.DeleteIf(keys[1], 1) {
		t.Fatal("DeleteIf of a present entry failed")
	}
	delete(ref, keys[1])
	checkAgainst(t, &m, ref, keys)
	if m.DeleteIf(keys[2], 99) {
		t.Fatal("DeleteIf removed an entry holding another value")
	}
	for i := 0; len(m.keys) == slots; i++ {
		k := keyHomedAt(&m, uint64(100+i)<<32, slots-1)
		m.Set(k, int32(100+i))
		ref[k] = int32(100 + i)
	}
	checkAgainst(t, &m, ref, keys)
	m.Clear()
	clear(ref)
	checkAgainst(t, &m, ref, keys)
	if len(m.keys) == slots {
		t.Fatal("Clear dropped the grown slots")
	}
}

func TestPresize(t *testing.T) {
	for _, hint := range []int{0, 1, 6, 7, 100, 1000} {
		m := New(hint)
		slots := len(m.keys)
		for i := 0; i < hint; i++ {
			m.Set(uint64(i), int32(i))
		}
		if len(m.keys) != slots {
			t.Fatalf("hint %d: grew from %d to %d slots", hint, slots, len(m.keys))
		}
		if m.MemoryBytes() != int64(slots)*slotBytes {
			t.Fatalf("hint %d: MemoryBytes %d for %d slots", hint, m.MemoryBytes(), slots)
		}
	}
}

func TestEmptyKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("storing the empty-slot key did not panic")
		}
	}()
	var m Map
	m.Set(Empty, 1)
}
