package sqldb

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestPackedKeysAcrossWidths runs seeded random sequences of insert,
// delete, split (slice) and clone on one packed run, with rowids spread
// across 2^8, 2^16, 2^32 and the whole int64 range, and suffix bytes
// totalling across 255 and 65,535 (kilobyte TEXT keys, as a value index
// holds, make a node of over 64 KiB). After every step the run must
// match a sorted reference of its entries under len, key, rid, search,
// cmpBound and firstAbove; a run packed whole (a split's halves) must
// be in its narrowest widths; a mutated clone must leave its source as
// it was. Each case must reach the widths it is meant to cross.
func TestPackedKeysAcrossWidths(t *testing.T) {
	for _, c := range []struct {
		name           string
		lo, hi         int64 // rowids are drawn from [lo, hi]
		keyLen         int   // a key's random tail after its first byte
		steps          int
		wantEW, wantRW uint8 // the widest offsets and rowids to reach
	}{
		{"narrow", 0, 200, 2, 3000, 1, 1},
		{"rowids past 2^8", 1000, 1000 + 1<<9, 2, 3000, 1, 2},
		{"rowids past 2^16", 0, 1 << 17, 6, 3000, 2, 4},
		{"rowids past 2^32", -1 << 33, 1 << 33, 6, 3000, 2, 8},
		{"rowids over all of int64", math.MinInt64, math.MaxInt64, 6, 3000, 2, 8},
		{"kilobyte keys", 0, 1 << 20, 2000, 400, 4, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.steps) + c.hi))
			key := func() string {
				// A first byte from a small alphabet, so that runs share
				// prefixes that an insert at either end cuts and a delete
				// there grows; then a tail of c.keyLen/2 to c.keyLen bytes.
				tail := make([]byte, c.keyLen/2+rng.Intn(c.keyLen/2+1))
				for i := range tail {
					tail[i] = "abc"[rng.Intn(3)]
				}
				return encKey(NewText(string("xyz"[rng.Intn(3)]) + string(tail)))
			}
			rid := func() int64 {
				if span := uint64(c.hi - c.lo); span < math.MaxUint64 {
					return c.lo + int64(rng.Uint64()%(span+1))
				}
				return int64(rng.Uint64())
			}
			var r packedKeys
			var ref []btreeEntry
			var ew, rw uint8
			for step := range c.steps {
				// Inserts outnumber deletes two to one, and one step in a
				// hundred splits, so the run mostly holds 40 to 65 entries.
				switch op := rng.Intn(100); {
				case op < 64 && len(ref) <= btreeOrder || len(ref) == 0:
					e := btreeEntry{key: key(), rid: rid()}
					i, found := slices.BinarySearchFunc(ref, e, compareEntries)
					if found {
						continue
					}
					if got := r.search(e.key, e.rid, 0); got != i {
						t.Fatalf("step %d: search places %q/%d at %d, want %d", step, e.key, e.rid, got, i)
					}
					r.insert(i, e.key, e.rid)
					ref = slices.Insert(ref, i, e)
				case op < 96:
					i := rng.Intn(len(ref))
					r.delete(i)
					ref = slices.Delete(ref, i, i+1)
				case op < 97:
					mid := rng.Intn(len(ref) + 1)
					left, right := r.slice(0, mid), r.slice(mid, len(ref))
					checkPacked(t, rng, &left, ref[:mid], true)
					checkPacked(t, rng, &right, ref[mid:], true)
					if rng.Intn(2) == 0 {
						r, ref = left, slices.Clone(ref[:mid])
					} else {
						r, ref = right, slices.Clone(ref[mid:])
					}
				default:
					cl, clRef := r.clone(), slices.Clone(ref)
					for range 3 {
						if len(clRef) > 0 && rng.Intn(2) == 0 {
							i := rng.Intn(len(clRef))
							cl.delete(i)
							clRef = slices.Delete(clRef, i, i+1)
							continue
						}
						e := btreeEntry{key: key(), rid: rid()}
						if i, found := slices.BinarySearchFunc(clRef, e, compareEntries); !found {
							cl.insert(i, e.key, e.rid)
							clRef = slices.Insert(clRef, i, e)
						}
					}
					checkPacked(t, rng, &r, ref, false)
					checkPacked(t, rng, &cl, clRef, false)
					if rng.Intn(2) == 0 {
						r, ref = cl, clRef
					}
				}
				checkPacked(t, rng, &r, ref, false)
				ew, rw = max(ew, r.ew), max(rw, r.rw)
			}
			if ew < c.wantEW || rw < c.wantRW {
				t.Errorf("widest offsets %d and rowids %d bytes, want %d and %d", ew, rw, c.wantEW, c.wantRW)
			}
		})
	}
}

// checkPacked holds r to ref, its entries in order: its structure
// (checkRun), and len, key, rid, search, cmpBound and firstAbove
// against the reference, the bounds being prefixes of its keys and of
// keys between them. exact also requires the narrowest widths and the
// least rowid as base, as a run packed whole has.
func checkPacked(t *testing.T, rng *rand.Rand, r *packedKeys, ref []btreeEntry, exact bool) {
	t.Helper()
	got := checkRun(t, r)
	if r.len() != len(ref) || !slices.Equal(got, ref) {
		t.Fatalf("run holds %d entries, reference %d, or they differ", r.len(), len(ref))
	}
	if exact && len(ref) > 0 {
		least, most := ref[0].rid, ref[0].rid
		for _, e := range ref {
			least, most = min(least, e.rid), max(most, e.rid)
		}
		if r.ew != widthFor(uint64(r.sufLen())) || r.rw != widthFor(uint64(most-least)) || r.base != least {
			t.Fatalf("run packed whole has %d-byte offsets for %d suffix bytes and %d-byte rowids over base %d for [%d, %d]",
				r.ew, r.sufLen(), r.rw, r.base, least, most)
		}
	}
	for range 8 {
		var probe string
		if len(ref) > 0 {
			k := ref[rng.Intn(len(ref))].key
			probe = k[:rng.Intn(len(k)+1)]
		}
		if rng.Intn(2) == 0 {
			probe += string(rune('a' + rng.Intn(26)))
		}
		rid := rng.Int63n(3) - 1
		if len(ref) > 0 {
			rid += ref[rng.Intn(len(ref))].rid
		}
		for strict := range 2 {
			want, _ := slices.BinarySearchFunc(ref, strict, func(e btreeEntry, strict int) int {
				if compareEntries(e, btreeEntry{key: probe, rid: rid}) < strict {
					return -1
				}
				return 1
			})
			if got := r.search(probe, rid, strict); got != want {
				t.Fatalf("search(%q, %d, %d) = %d, want %d", probe, rid, strict, got, want)
			}
			from := rng.Intn(len(ref) + 1)
			want = from
			for want < len(ref) && prefixCompare(ref[want].key, probe) < strict {
				want++
			}
			if got := r.firstAbove(from, probe, strict); got != want {
				t.Fatalf("firstAbove(%d, %q, %d) = %d, want %d", from, probe, strict, got, want)
			}
		}
		if len(ref) > 0 {
			i := rng.Intn(len(ref))
			if c, _ := r.cmpBound(i, probe); c != prefixCompare(ref[i].key, probe) {
				t.Fatalf("cmpBound(%d, %q) = %d, want %d", i, probe, c, prefixCompare(ref[i].key, probe))
			}
		}
	}
	for i, e := range ref {
		if r.key(i) != e.key || r.rid(i) != e.rid || !strings.HasPrefix(e.key, r.pre()) {
			t.Fatalf("entry %d reads %q/%d, want %q/%d", i, r.key(i), r.rid(i), e.key, e.rid)
		}
	}
}
