package server

import (
	"encoding/binary"
	"fmt"
	"net/http"

	"github.com/clamshell/clamshell/internal/sketch"
)

// Sketch export: GET /metrics/sketch serves the scrape page's t-digest
// summaries in the sketch package's binary codec instead of pre-collapsed
// quantile samples. The text exposition necessarily loses information — a
// quantile of merged digests is not the merge of quantiles — so off-box
// aggregators (a metrics pipeline merging many fabrics, a notebook joining
// scrapes over time) pull the digests themselves and merge losslessly.
//
// Layout (little-endian):
//
//	[1]   version
//	[uv]  entry count
//	per entry:
//	  [uv] name length, name bytes (the metric family the digest backs,
//	       plus any label suffix, e.g. clamshell_op_latency_seconds{...})
//	  [uv] digest length, digest bytes (sketch binary codec)
//
// Decoding is strict — trailing bytes, truncation, oversized names, and
// malformed digests are all rejected — mirroring the wire protocol's
// hostile-input posture.

// sketchExportVersion pins the export encoding; additive evolution bumps it.
const sketchExportVersion = 1

// sketchExportMaxName bounds a single entry's name length.
const sketchExportMaxName = 256

// NamedSketch pairs a digest with the metric series it backs.
type NamedSketch struct {
	Name   string
	Digest *sketch.TDigest
}

// Sketches collects every digest behind the page's summary families, named
// by family (with the label suffix for labeled series). The order is
// deterministic: the same page always exports the same sequence.
func (p *MetricsPage) Sketches() []NamedSketch {
	out := []NamedSketch{
		{Name: "clamshell_latency_per_record_seconds", Digest: p.PerRecord},
		{Name: "clamshell_handout_wait_seconds", Digest: p.Handout},
	}
	if o := p.Obs; o != nil {
		transports := []struct {
			name string
			ts   *TransportStats
		}{{"http", &o.HTTP}, {"wire", &o.Wire}}
		for _, tr := range transports {
			for op := Op(0); op < NumOps; op++ {
				if tr.ts.Count(op) == 0 {
					continue
				}
				name := fmt.Sprintf("clamshell_op_latency_seconds{transport=%q,op=%q}", tr.name, op)
				out = append(out, NamedSketch{Name: name, Digest: tr.ts.Snapshot(op)})
			}
		}
		out = append(out, NamedSketch{Name: "clamshell_wire_decode_seconds", Digest: o.WireDecode.Snapshot()})
	}
	if j := p.Journal; j != nil {
		out = append(out,
			NamedSketch{Name: "clamshell_journal_commit_lag_seconds", Digest: j.CommitLag},
			NamedSketch{Name: "clamshell_journal_batch_ops", Digest: j.BatchOps},
		)
	}
	return out
}

// EncodeSketchExport serializes named digests in the export format.
func EncodeSketchExport(entries []NamedSketch) []byte {
	b := []byte{sketchExportVersion}
	b = binary.AppendUvarint(b, uint64(len(entries)))
	var scratch []byte
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(len(e.Name)))
		b = append(b, e.Name...)
		scratch = e.Digest.AppendBinary(scratch[:0])
		b = binary.AppendUvarint(b, uint64(len(scratch)))
		b = append(b, scratch...)
	}
	return b
}

// DecodeSketchExport parses an export produced by EncodeSketchExport,
// consuming the whole input.
func DecodeSketchExport(data []byte) ([]NamedSketch, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("server: sketch export: empty input")
	}
	if data[0] != sketchExportVersion {
		return nil, fmt.Errorf("server: sketch export version %d, want %d", data[0], sketchExportVersion)
	}
	i := 1
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return 0, fmt.Errorf("server: sketch export: truncated")
		}
		i += n
		return v, nil
	}
	count, err := uv()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least two length bytes plus a one-byte name:
	// bound the allocation by the remaining payload before trusting count.
	if count > uint64(len(data)-i) {
		return nil, fmt.Errorf("server: sketch export: entry count exceeds payload")
	}
	out := make([]NamedSketch, 0, count)
	for e := uint64(0); e < count; e++ {
		nameLen, err := uv()
		if err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > sketchExportMaxName {
			return nil, fmt.Errorf("server: sketch export: name length %d out of range", nameLen)
		}
		if uint64(len(data)-i) < nameLen {
			return nil, fmt.Errorf("server: sketch export: truncated name")
		}
		name := string(data[i : i+int(nameLen)])
		i += int(nameLen)
		digLen, err := uv()
		if err != nil {
			return nil, err
		}
		if uint64(len(data)-i) < digLen {
			return nil, fmt.Errorf("server: sketch export: truncated digest")
		}
		d, err := sketch.Decode(data[i : i+int(digLen)])
		if err != nil {
			return nil, fmt.Errorf("server: sketch export entry %q: %w", name, err)
		}
		i += int(digLen)
		out = append(out, NamedSketch{Name: name, Digest: d})
	}
	if i != len(data) {
		return nil, fmt.Errorf("server: sketch export: trailing bytes")
	}
	return out, nil
}

// WriteSketchExport serves a page's digests in the binary export format.
func WriteSketchExport(w http.ResponseWriter, p *MetricsPage) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(EncodeSketchExport(p.Sketches()))
}
