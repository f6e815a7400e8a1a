package pdcs

// covArena bump-allocates Candidate.Covers storage in large chunks so the
// overhauled sweep performs one heap allocation per ~8k covered devices
// instead of one per candidate. An arena's chunks double from
// covArenaFirst up to covArenaChunk entries, so a small sweep does not
// allocate (and keep live until it ends) a full chunk for a few hundred
// covers: in a server solving many small scenarios, those mostly empty
// chunks made up a third of all allocation and nearly half the heap a
// collection found live. Carved slices are full-capacity
// (three-index) sub-slices and the write position only ever advances, so a
// slice handed out earlier can never be re-carved or overwritten — even
// after the arena returns to a pool and serves a later sweep. Candidates
// that escape extraction are detached from arena storage (detachCovers) so
// survivors never pin a mostly-dead chunk.
type covArena struct {
	buf []DevPower
}

// covArenaFirst and covArenaChunk are the first and the largest chunk
// sizes in DevPower entries (4 KiB and 128 KiB).
const (
	covArenaFirst = 1 << 8
	covArenaChunk = 1 << 13
)

func (a *covArena) alloc(n int) []DevPower {
	if n > cap(a.buf)-len(a.buf) {
		sz := min(covArenaChunk, max(covArenaFirst, 2*cap(a.buf)))
		if n > sz {
			sz = n
		}
		a.buf = make([]DevPower, 0, sz)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+n]
	return a.buf[start : start+n : start+n]
}

// detachCovers replaces every candidate's Covers with a private copy,
// releasing the extraction arenas the slices were carved from.
func detachCovers(cands []Candidate) {
	for i := range cands {
		if len(cands[i].Covers) > 0 {
			cands[i].Covers = append([]DevPower(nil), cands[i].Covers...)
		}
	}
}
