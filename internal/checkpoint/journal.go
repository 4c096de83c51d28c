package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrNoEpoch reports a journal with no recoverable entry — every file is
// missing, truncated, or corrupt. The caller decides whether that means
// "cold start" or "refuse to serve".
var ErrNoEpoch = errors.New("checkpoint: journal holds no recoverable epoch")

const journalPattern = "epoch-%08d.ckpt"

// Journal is metaai-serve's write-ahead epoch log: one sealed KindEpoch file
// per published serving state, append-only, recovered newest-first. Appends
// go through WriteFile's write→fsync→rename discipline, so the journal is
// kill-safe by construction — a crash mid-append leaves the previous entries
// untouched and at worst an invisible temp file.
type Journal struct {
	dir string

	mu   sync.Mutex
	next uint64 // sequence number the next Append will assign
}

// OpenJournal opens (creating if needed) the epoch journal in dir and
// positions the append cursor after the highest existing entry.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, next: 1}
	for _, seq := range j.sequences() {
		if seq >= j.next {
			j.next = seq + 1
		}
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// sequences returns the sequence numbers of all well-named entries,
// ascending. Files that don't parse as journal entries are ignored.
func (j *Journal) sequences() []uint64 {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, ent := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(ent.Name(), journalPattern, &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	return seqs
}

// Newest returns the highest sequence in the journal's entry names (0 when
// it has none). It reads the directory only, never an entry, so a poller
// can call it on every tick and Recover only once something new landed.
// The newest name may still be a corrupt entry that Recover skips.
func (j *Journal) Newest() uint64 {
	if seqs := j.sequences(); len(seqs) > 0 {
		return seqs[len(seqs)-1]
	}
	return 0
}

func (j *Journal) path(seq uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf(journalPattern, seq))
}

// Append assigns the epoch the next sequence number and durably writes it.
// It returns the assigned sequence. Append serializes internally; it is safe
// to call from the heal supervisor while the serving path runs — the write
// happens off the request path entirely.
func (j *Journal) Append(e *Epoch) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e.Seq = j.next
	if err := WriteFile(j.path(e.Seq), EncodeEpoch(e)); err != nil {
		return 0, err
	}
	j.next++
	return e.Seq, nil
}

// Recover returns the newest decodable epoch, scanning backwards across
// corrupt or truncated entries (each skip bumps the checkpoint.corrupt
// counter). ErrNoEpoch means the journal exists but nothing in it can be
// served.
func (j *Journal) Recover() (*Epoch, error) {
	return j.RecoverBefore(0)
}

// RecoverBefore is Recover restricted to entries with sequence < seq
// (seq == 0 means unrestricted). It is the rollback primitive: "the newest
// good epoch that is not the one that just regressed".
func (j *Journal) RecoverBefore(seq uint64) (*Epoch, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seqs := j.sequences()
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		if seq != 0 && seqs[i] >= seq {
			continue
		}
		b, err := ReadFile(j.path(seqs[i]))
		if err == nil {
			var e *Epoch
			if e, err = DecodeEpoch(b); err == nil {
				return e, nil
			}
		}
		ckptCorrupt.Inc()
		if firstErr == nil {
			firstErr = fmt.Errorf("epoch %d: %w", seqs[i], err)
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w (newest failure: %v)", ErrNoEpoch, firstErr)
	}
	return nil, ErrNoEpoch
}

// Prune removes all but the newest keep entries, bounding the state
// directory. Keep at least 2 so a rollback target always survives.
func (j *Journal) Prune(keep int) error {
	if keep < 1 {
		keep = 1
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	seqs := j.sequences()
	if len(seqs) <= keep {
		return nil
	}
	var firstErr error
	for _, seq := range seqs[:len(seqs)-keep] {
		if err := os.Remove(j.path(seq)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := syncDir(j.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close flushes the journal directory. Appends are individually durable, so
// Close exists for shutdown ordering: serve drain → journal close → metrics
// sidecar teardown.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return syncDir(j.dir)
}
