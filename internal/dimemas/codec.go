package dimemas

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/eventq"
)

// Traces serialize to a line-delimited JSON format so post-mortem
// traces can be stored, inspected, and replayed later — the role of
// the Dimemas trace files in the paper's methodology. The format is
// versioned: a header object followed by one object per (rank, op).
//
//	{"format":"xgft-trace","version":1,"ranks":2}
//	{"rank":0,"op":"send","dst":1,"bytes":1024,"tag":0}
//	{"rank":1,"op":"recv","src":0,"tag":0}
const (
	traceFormat  = "xgft-trace"
	traceVersion = 1
	// maxTraceRanks bounds the rank count a header may declare. ReadTrace
	// allocates a slice per declared rank before it reads one line, so
	// an unbounded header could allocate gigabytes or panic.
	maxTraceRanks = 1 << 20
)

type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Ranks   int    `json:"ranks"`
}

type traceLine struct {
	Rank  int    `json:"rank"`
	Op    string `json:"op"`
	Dst   *int   `json:"dst,omitempty"`
	Src   *int   `json:"src,omitempty"`
	Bytes *int64 `json:"bytes,omitempty"`
	Tag   *int   `json:"tag,omitempty"`
	Req   *int   `json:"req,omitempty"`
	Dur   *int64 `json:"dur,omitempty"`
}

// WriteTrace serializes the trace. The trace is validated first.
func WriteTrace(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(traceHeader{Format: traceFormat, Version: traceVersion, Ranks: t.NumRanks()}); err != nil {
		return err
	}
	for rank, ops := range t.Ranks {
		for _, op := range ops {
			line, err := encodeOp(rank, op)
			if err != nil {
				return err
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return nil
}

func encodeOp(rank int, op Op) (traceLine, error) {
	l := traceLine{Rank: rank}
	switch o := op.(type) {
	case Compute:
		l.Op = "compute"
		d := int64(o.Dur)
		l.Dur = &d
	case Send:
		l.Op = "send"
		l.Dst, l.Bytes, l.Tag = &o.Dst, &o.Bytes, &o.Tag
	case ISend:
		l.Op = "isend"
		l.Dst, l.Bytes, l.Tag, l.Req = &o.Dst, &o.Bytes, &o.Tag, &o.Req
	case Recv:
		l.Op = "recv"
		l.Src, l.Tag = &o.Src, &o.Tag
	case Wait:
		l.Op = "wait"
		l.Req = &o.Req
	case WaitAll:
		l.Op = "waitall"
	case Barrier:
		l.Op = "barrier"
	default:
		return l, fmt.Errorf("dimemas: cannot encode op %T", op)
	}
	return l, nil
}

// ReadTrace parses the WriteTrace format and validates the result.
func ReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	var hdr traceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("dimemas: reading trace header: %w", err)
	}
	if hdr.Format != traceFormat {
		return nil, fmt.Errorf("dimemas: not a trace file (format %q)", hdr.Format)
	}
	if hdr.Version != traceVersion {
		return nil, fmt.Errorf("dimemas: unsupported trace version %d (want %d)", hdr.Version, traceVersion)
	}
	if hdr.Ranks <= 0 || hdr.Ranks > maxTraceRanks {
		return nil, fmt.Errorf("dimemas: trace declares %d ranks (want 1 to %d)", hdr.Ranks, maxTraceRanks)
	}
	t := &Trace{Ranks: make([][]Op, hdr.Ranks)}
	for {
		var line traceLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dimemas: reading trace line: %w", err)
		}
		if line.Rank < 0 || line.Rank >= hdr.Ranks {
			return nil, fmt.Errorf("dimemas: trace line for rank %d out of %d", line.Rank, hdr.Ranks)
		}
		op, err := decodeOp(line)
		if err != nil {
			return nil, err
		}
		t.Ranks[line.Rank] = append(t.Ranks[line.Rank], op)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func decodeOp(l traceLine) (Op, error) {
	need := func(name string, got bool) error {
		if !got {
			return fmt.Errorf("dimemas: op %q missing field %q", l.Op, name)
		}
		return nil
	}
	switch l.Op {
	case "compute":
		if err := need("dur", l.Dur != nil); err != nil {
			return nil, err
		}
		return Compute{Dur: eventq.Time(*l.Dur)}, nil
	case "send":
		if err := need("dst", l.Dst != nil); err != nil {
			return nil, err
		}
		if err := need("bytes", l.Bytes != nil); err != nil {
			return nil, err
		}
		return Send{Dst: *l.Dst, Bytes: *l.Bytes, Tag: intOr(l.Tag, 0)}, nil
	case "isend":
		if err := need("dst", l.Dst != nil); err != nil {
			return nil, err
		}
		if err := need("bytes", l.Bytes != nil); err != nil {
			return nil, err
		}
		return ISend{Dst: *l.Dst, Bytes: *l.Bytes, Tag: intOr(l.Tag, 0), Req: intOr(l.Req, 0)}, nil
	case "recv":
		if err := need("src", l.Src != nil); err != nil {
			return nil, err
		}
		return Recv{Src: *l.Src, Tag: intOr(l.Tag, 0)}, nil
	case "wait":
		if err := need("req", l.Req != nil); err != nil {
			return nil, err
		}
		return Wait{Req: *l.Req}, nil
	case "waitall":
		return WaitAll{}, nil
	case "barrier":
		return Barrier{}, nil
	default:
		return nil, fmt.Errorf("dimemas: unknown op %q", l.Op)
	}
}

func intOr(p *int, def int) int {
	if p == nil {
		return def
	}
	return *p
}
