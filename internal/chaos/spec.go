package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"itag/internal/store"
)

// ParseSpec compiles the `itagd -chaos-spec` mini-language into a
// Schedule. Clauses are semicolon-separated; each clause is either
// `seed=N` or one fault described by comma-separated key[=value] fields:
//
//	kind        partition | loss=P | latency=DUR | stall=DUR | torn-write
//	scope       from=HOST to=HOST oneway        (network faults)
//	            host=PATHSUBSTR op=OPERATION    (disk faults)
//	window      after=DUR for=DUR
//
// A disk fault's OPERATION is one of the store's file operations: create,
// write, sync, rename, remove or truncate. A stall without one stalls every
// operation of the matching stores, a torn write without one tears their
// next write.
//
// Example — a 2s partition of node-b starting 5s in, 30ms of extra latency
// toward node-c for a minute, and a torn write on node-a's disk:
//
//	seed=42;after=5s,for=2s,partition,from=*,to=node-b;after=10s,for=1m,latency=30ms,to=node-c;after=20s,torn-write,host=node-a
//
// Hosts are matched scheme-insensitively; "*" (the default) matches any.
func ParseSpec(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok && !strings.Contains(clause, ",") {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", v, err)
			}
			s.Seed = seed
			continue
		}
		f, err := parseFault(clause)
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("chaos: spec %q declares no faults", spec)
	}
	return s, nil
}

func parseFault(clause string) (Fault, error) {
	var f Fault
	for _, field := range strings.Split(clause, ",") {
		field = strings.TrimSpace(field)
		key, val, _ := strings.Cut(field, "=")
		var err error
		switch key {
		case "partition":
			f.Kind = KindPartition
		case "torn-write":
			f.Kind = KindTornWrite
		case "loss":
			f.Kind = KindLoss
			if f.P, err = strconv.ParseFloat(val, 64); err != nil || f.P < 0 || f.P > 1 {
				return f, fmt.Errorf("chaos: bad loss probability %q in %q", val, clause)
			}
		case "latency":
			f.Kind = KindLatency
			if f.Delay, err = time.ParseDuration(val); err != nil {
				return f, fmt.Errorf("chaos: bad latency %q in %q", val, clause)
			}
		case "stall":
			f.Kind = KindDiskStall
			if f.Delay, err = time.ParseDuration(val); err != nil {
				return f, fmt.Errorf("chaos: bad stall %q in %q", val, clause)
			}
		case "from":
			f.From = val
		case "to":
			f.To = val
		case "oneway":
			f.OneWay = true
		case "host":
			f.Host = val
		case "op":
			for f.Op = store.FileCreate; f.Op.String() != val; f.Op++ {
				if f.Op == store.FileTruncate {
					return f, fmt.Errorf("chaos: unknown file operation %q in %q", val, clause)
				}
			}
		case "after":
			if f.After, err = time.ParseDuration(val); err != nil {
				return f, fmt.Errorf("chaos: bad after %q in %q", val, clause)
			}
		case "for":
			if f.For, err = time.ParseDuration(val); err != nil {
				return f, fmt.Errorf("chaos: bad for %q in %q", val, clause)
			}
		default:
			return f, fmt.Errorf("chaos: unknown field %q in %q", field, clause)
		}
	}
	if f.Kind == 0 {
		return f, fmt.Errorf("chaos: clause %q names no fault kind", clause)
	}
	return f, nil
}
