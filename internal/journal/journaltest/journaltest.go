// Package journaltest builds journal fixtures for tests outside the
// journal package: wal files as a node leaves them when it wrote v1 (JSON)
// records before an upgrade and binary records after it.
package journaltest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/clamshell/clamshell/internal/journal"
)

// DowngradeWAL rewrites the first n records of the wal file at path (all
// of them when n < 0) as v1 records — exactly what earlier builds wrote
// for the same ops — leaving the rest as they are.
func DowngradeWAL(path string, n int) error {
	payloads, err := scan(path)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	if err := journal.WriteHeader(&out, journal.MagicWAL); err != nil {
		return err
	}
	for i, p := range payloads {
		if n < 0 || i < n {
			op, err := journal.DecodeOp(p)
			if err != nil {
				return fmt.Errorf("%s record %d: %w", path, i, err)
			}
			if p, err = json.Marshal(op); err != nil {
				return err
			}
		}
		if err := journal.AppendRecord(&out, p); err != nil {
			return err
		}
	}
	return os.WriteFile(path, out.Bytes(), 0o644)
}

// RecordKinds counts the v1 and the binary records of the wal file at path.
func RecordKinds(path string) (v1, binary int, err error) {
	payloads, err := scan(path)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range payloads {
		if json.Valid(p) {
			v1++
		} else {
			binary++
		}
	}
	return v1, binary, nil
}

// scan returns the record payloads of an intact wal file.
func scan(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := journal.NewScanner(f, journal.MagicWAL)
	if err != nil {
		return nil, err
	}
	var payloads [][]byte
	for {
		p, err := sc.Scan()
		if err == io.EOF {
			return payloads, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(payloads), err)
		}
		payloads = append(payloads, p)
	}
}
