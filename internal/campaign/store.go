package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is the on-disk result store of a campaign: an append-only set
// of checksummed JSONL record files in one directory, plus a spec
// header binding the directory to a single campaign fingerprint.
//
// Layout:
//
//	<dir>/campaign.json          spec header (atomic, written once)
//	<dir>/records-<shard>.jsonl  one append-only file per shard process
//
// Concurrent shard processes never write the same file, so the merged
// store is the plain union of the record files, and resume and merge
// read nothing else: a unit is done when its record is. A SIGKILLed
// shard may leave a torn final line in its record file; Open drops it
// (and any checksum-corrupt record) so the unit re-runs instead of
// resuming from damaged state.
type Store struct {
	dir  string
	spec string

	mu      sync.Mutex
	f       *os.File
	have    map[string]Result
	corrupt int
	torn    int
}

// record is one stored (unit, result) pair. The checksum c covers the
// hash and the canonical encodings of unit and result, so a flipped
// byte anywhere in the line fails validation.
type record struct {
	H string `json:"h"`
	U Unit   `json:"u"`
	R Result `json:"r"`
	C string `json:"c"`
}

func checksum(h string, u Unit, r Result) string {
	ub, _ := json.Marshal(u)
	rb, _ := json.Marshal(r)
	sum := sha256.Sum256([]byte(h + "|" + string(ub) + "|" + string(rb)))
	return hex.EncodeToString(sum[:8])
}

// header is the spec file binding a store directory to one campaign.
type header struct {
	Salt string `json:"salt"`
	Spec string `json:"spec"`
}

// Open opens (creating if needed) the store directory for a campaign
// with the given spec fingerprint, loads every valid record from every
// shard's file, and prepares the append file for this process's shard
// label. Opening a directory whose header names a different spec is an
// error: result records are only reusable within one campaign.
func Open(dir, shard, spec string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store: %w", err)
	}
	s := &Store{dir: dir, spec: spec, have: make(map[string]Result)}
	if err := s.bindSpec(); err != nil {
		return nil, err
	}
	if err := s.loadAll(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.recordPath(shard), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: store: %w", err)
	}
	s.f = f
	return s, nil
}

func (s *Store) recordPath(shard string) string {
	return filepath.Join(s.dir, "records-"+shard+".jsonl")
}

// bindSpec writes the spec header atomically on first open and
// verifies it on every later open.
func (s *Store) bindSpec() error {
	path := filepath.Join(s.dir, "campaign.json")
	if b, err := os.ReadFile(path); err == nil {
		var h header
		if err := json.Unmarshal(b, &h); err != nil {
			return fmt.Errorf("campaign: store header %s is corrupt: %w", path, err)
		}
		if h.Salt != hashSalt || h.Spec != s.spec {
			return fmt.Errorf("campaign: store %s holds a different campaign (spec %q, want %q)",
				s.dir, h.Spec, s.spec)
		}
		return nil
	}
	b, err := json.Marshal(header{Salt: hashSalt, Spec: s.spec})
	if err != nil {
		return err
	}
	return atomicWrite(path, append(b, '\n'))
}

// atomicWrite lands bytes at path via a unique temp file and rename, so
// readers never observe a partial file.
func atomicWrite(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadAll reads every shard's record file, keeping valid records and
// counting corrupt and torn ones.
func (s *Store) loadAll() error {
	files, err := filepath.Glob(filepath.Join(s.dir, "records-*.jsonl"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	for _, path := range files {
		if err := s.loadFile(path); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) loadFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("campaign: store: %w", err)
	}
	for len(b) > 0 {
		nl := -1
		for i, c := range b {
			if c == '\n' {
				nl = i
				break
			}
		}
		line := b
		terminated := nl >= 0
		if terminated {
			line = b[:nl]
			b = b[nl+1:]
		} else {
			b = nil
		}
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var rec record
		ok := json.Unmarshal(line, &rec) == nil &&
			rec.H == rec.U.Hash() &&
			rec.C == checksum(rec.H, rec.U, rec.R)
		switch {
		case ok:
			s.have[rec.H] = rec.R
		case !terminated:
			// A torn final line is the expected residue of a killed
			// shard: the unit simply re-runs.
			s.torn++
		default:
			s.corrupt++
		}
	}
	return nil
}

// Have returns the stored result for a unit hash.
func (s *Store) Have(hash string) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.have[hash]
	return r, ok
}

// Len is the number of valid records loaded plus appended.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.have)
}

// Corrupt is the number of records dropped at open for failing their
// checksum (torn final lines are counted separately by Torn).
func (s *Store) Corrupt() int { return s.corrupt }

// Torn is the number of unterminated final lines dropped at open — the
// residue of a killed writer.
func (s *Store) Torn() int { return s.torn }

// Append durably records one completed unit. Each record is one
// write() of one newline-terminated line, so concurrent appends from
// this process interleave at record granularity and a killed process
// loses at most the final, torn line.
func (s *Store) Append(u Unit, r Result) error {
	h := u.Hash()
	rec := record{H: h, U: u, R: r, C: checksum(h, u, r)}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(b); err != nil {
		return fmt.Errorf("campaign: store append: %w", err)
	}
	s.have[h] = r
	return nil
}

// Close closes the append file. The store stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
