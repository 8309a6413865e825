// Package idmap is the flat hash table behind the detector's integer
// indexes: a map from uint64 keys to int32 ids, stored as two parallel
// slices with open addressing. Sequitur's digram index (a pair of int32
// symbol values packed into one key) and a SAX pipeline's word dictionary
// (a word of up to 12 symbols packed 5 bits each) are both such maps, and
// both sit on the detector's innermost loop, where the runtime map's
// generic hashing and bucket layout were the largest single cost.
//
// Keys hash multiplicatively (Fibonacci hashing: the top bits of the key
// times 2^64/φ) into a power-of-two slot array and probe linearly; a
// deletion shifts the rest of its cluster back instead of leaving a
// tombstone, so lookups never slow down as entries come and go. The table
// doubles once it would be more than 3/4 full. ^uint64(0) marks an empty
// slot and is not a valid key: no packed digram or packed word equals it.
package idmap

// Empty is the key value marking an unused slot; it cannot be stored.
const Empty = ^uint64(0)

// minSlots is the smallest slot array a table allocates.
const minSlots = 8

// slotBytes is the memory one slot takes: a uint64 key and an int32 value.
const slotBytes = 12

// Map is a uint64 → int32 hash table. The zero value is an empty table
// that allocates on its first insertion. A Map is not safe for concurrent
// use.
type Map struct {
	keys  []uint64 // Empty marks a free slot
	vals  []int32
	n     int  // live entries
	shift uint // 64 - log2(len(keys))
}

// New returns a table presized to hold hint entries without growing.
func New(hint int) Map {
	var m Map
	m.alloc(slotsFor(hint))
	return m
}

// slotsFor returns the smallest power-of-two slot count that holds n
// entries at a load of at most 3/4.
func slotsFor(n int) int {
	s := minSlots
	for s*3/4 < n {
		s *= 2
	}
	return s
}

func (m *Map) alloc(slots int) {
	m.keys = make([]uint64, slots)
	for i := range m.keys {
		m.keys[i] = Empty
	}
	m.vals = make([]int32, slots)
	m.shift = 64
	for s := slots; s > 1; s >>= 1 {
		m.shift--
	}
}

// home returns k's preferred slot.
func (m *Map) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> m.shift)
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// MemoryBytes is the table's retained memory: its slots at capacity.
func (m *Map) MemoryBytes() int64 { return int64(len(m.keys)) * slotBytes }

// find returns k's slot, or the free slot ending k's probe sequence when
// k is absent. The table must have slots.
func (m *Map) find(k uint64) int {
	mask := len(m.keys) - 1
	i := m.home(k)
	for m.keys[i] != k && m.keys[i] != Empty {
		i = (i + 1) & mask
	}
	return i
}

// Get returns the value stored under k and whether there is one.
func (m *Map) Get(k uint64) (int32, bool) {
	if m.n == 0 || k == Empty {
		return 0, false
	}
	if i := m.find(k); m.keys[i] == k {
		return m.vals[i], true
	}
	return 0, false
}

// GetOrPut returns the value stored under k and true if there is one;
// otherwise it stores v under k and returns v and false. One probe
// sequence serves both the lookup and the insertion.
func (m *Map) GetOrPut(k uint64, v int32) (int32, bool) {
	i, found := m.put(k, v)
	return m.vals[i], found
}

// Set stores v under k, replacing any previous value.
func (m *Map) Set(k uint64, v int32) {
	i, _ := m.put(k, v)
	m.vals[i] = v
}

// put returns k's slot and true if k is present; otherwise it stores v
// under k, growing the table first if the entry would push it past 3/4
// full, and returns the new slot and false.
func (m *Map) put(k uint64, v int32) (int, bool) {
	if k == Empty {
		panic("idmap: the empty-slot key cannot be stored")
	}
	if len(m.keys) == 0 {
		m.alloc(minSlots)
	}
	i := m.find(k)
	if m.keys[i] == k {
		return i, true
	}
	if (m.n+1)*4 > len(m.keys)*3 {
		m.grow()
		i = m.find(k)
	}
	m.keys[i], m.vals[i] = k, v
	m.n++
	return i, false
}

// DeleteIf removes k's entry if its value is v, and reports whether it
// did. Sequitur's index uses it to drop a digram only while the index
// still points at the occurrence being destroyed.
func (m *Map) DeleteIf(k uint64, v int32) bool {
	if m.n == 0 || k == Empty {
		return false
	}
	i := m.find(k)
	if m.keys[i] != k || m.vals[i] != v {
		return false
	}
	mask := len(m.keys) - 1
	// Backward-shift deletion: walk the rest of the cluster and move back
	// into the hole every entry whose home does not lie cyclically in
	// (hole, j], so that no entry is left past a free slot on its probe
	// path.
	for j := (i + 1) & mask; m.keys[j] != Empty; j = (j + 1) & mask {
		h := m.home(m.keys[j])
		if (j-h)&mask >= (j-i)&mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			i = j
		}
	}
	m.keys[i] = Empty
	m.n--
	return true
}

// Clear removes every entry and keeps the slots for reuse.
func (m *Map) Clear() {
	if m.n == 0 {
		return
	}
	for i := range m.keys {
		m.keys[i] = Empty
	}
	m.n = 0
}

// grow doubles the slot array and reinserts every entry.
func (m *Map) grow() {
	keys, vals := m.keys, m.vals
	m.alloc(2 * len(keys))
	for j, k := range keys {
		if k != Empty {
			i := m.find(k)
			m.keys[i], m.vals[i] = k, vals[j]
		}
	}
}
