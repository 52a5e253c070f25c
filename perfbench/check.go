package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// digest hashes a campaign's month series: every MonthEval field, in
// the JSON encoding the service streams (shortest round-trip floats,
// sorted map keys), so equal digests mean bit-identical results.
func digest(res *core.Results) (string, error) {
	if res == nil {
		return "", errors.New("no results")
	}
	data, err := json.Marshal(res.Monthly)
	if err != nil {
		return "", fmt.Errorf("encoding month series: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// expected is perfbench/expected.json: the digests recorded for the
// default seed, plus documentation the program does not read.
type expected struct {
	DefaultSeed uint64            `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
}

func loadExpected(path string) (expected, error) {
	var e expected
	data, err := os.ReadFile(path)
	if err != nil {
		return e, err
	}
	if err := json.Unmarshal(data, &e); err != nil {
		return e, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// digestStore remembers each (binary, workload, seed) digest across runs
// in the build directory, so a later run of the same build and seed must
// reproduce it.
type digestStore struct{ dir string }

// newDigestStore keys the store by a hash of the running executable, so
// a rebuilt benchmark starts afresh.
func newDigestStore(root string) (digestStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return digestStore{}, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return digestStore{}, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return digestStore{}, err
	}
	return digestStore{dir: filepath.Join(root, hex.EncodeToString(h.Sum(nil)[:12]))}, nil
}

// check compares got with the digest an earlier run recorded for the
// same key, recording it when there is none.
func (s digestStore) check(workload string, seed uint64, got string) error {
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%d", workload, seed))
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != got {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of this build and seed", got, prev)
		}
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(got), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
