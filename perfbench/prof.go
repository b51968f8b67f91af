package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profLayers are the prof.<layer>_s metrics. Attribution rules (README):
//   - a sample whose stack holds a garbage-collector worker or assist frame
//     counts as gc;
//   - otherwise it counts to the innermost frame from a package of this
//     module, so runtime helpers (allocation, map access, copying) count
//     to the layer that called them;
//   - the machine package is split by the file of that frame: router.go,
//     chanadapter.go and endpoint.go are the three component types, the
//     rest of the package (queues, arenas, machine-wide bookkeeping) is
//     machine;
//   - module packages without a metric of their own, and stacks with no
//     module frame at all (HTTP, JSON, the scheduler), count as other.
var profLayers = []string{
	"router", "chanadapter", "endpoint", "machine", "fabric", "arbiter", "sim",
	"route", "topo", "loadcalc", "multicast", "workload", "trace", "ckpt", "serve",
	"exp", "core", "telemetry", "gc", "other", "total",
}

const modulePrefix = "anton2/"

func layerOf(fn, file string) (string, bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	// "anton2/internal/sim.(*Pipe[...]).Peek": the package path ends at
	// the first dot after the last slash.
	slash := strings.LastIndex(fn, "/")
	rest := fn[slash+1:]
	pkg := rest
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		pkg = rest[:dot]
	}
	if pkg == "machine" {
		switch path.Base(file) {
		case "router.go":
			return "router", true
		case "chanadapter.go":
			return "chanadapter", true
		case "endpoint.go":
			return "endpoint", true
		}
		return "machine", true
	}
	for _, l := range profLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || strings.HasPrefix(fn, "runtime.markroot")
}

// attributeProfile reads a gzipped pprof CPU profile and returns seconds of
// CPU time per layer under the rules above.
func attributeProfile(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, l := range profLayers {
		out[l] = 0
	}
	vi := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		out["total"] += sec
		layer := ""
		gc := false
		for _, locID := range s.locs {
			for _, fnID := range p.locFuncs[locID] {
				f := p.funcs[fnID]
				name := p.str(f.name)
				if isGCFrame(name) {
					gc = true
				}
				if layer == "" {
					if l, ok := layerOf(name, p.str(f.file)); ok {
						layer = l
					}
				}
			}
		}
		switch {
		case gc:
			out["gc"] += sec
		case layer == "":
			out["other"] += sec
		default:
			out[layer] += sec
		}
	}
	return out, nil
}

// profile is the part of profile.proto the attribution reads.
type profile struct {
	sampleTypes []int64 // string index of each value's type
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]pfunc
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

type pfunc struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbReader walks protobuf wire format.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = errors.New("varint overflow")
	return 0
}

// next returns the next field: its number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte) {
	key := r.varint()
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[8:]
	case 2:
		n := r.varint()
		if uint64(len(r.b)) < n {
			r.err = io.ErrUnexpectedEOF
			return
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = io.ErrUnexpectedEOF
			return
		}
		r.b = r.b[4:]
	default:
		r.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// uints reads a repeated varint field that may be packed (wire type 2) or
// not (wire type 0).
func uints(wire int, v uint64, payload []byte, dst []uint64) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	r := pbReader{b: payload}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst
}

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]pfunc{}}
	r := pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		field, _, _, payload := r.next()
		if r.err != nil {
			break
		}
		switch field {
		case 1: // sample_type: ValueType{type=1, unit=2}
			vr := pbReader{b: payload}
			var typ int64
			for len(vr.b) > 0 && vr.err == nil {
				f, _, v, _ := vr.next()
				if f == 1 {
					typ = int64(v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample: location_id=1, value=2
			sr := pbReader{b: payload}
			var s sample
			for len(sr.b) > 0 && sr.err == nil {
				f, w, v, pl := sr.next()
				switch f {
				case 1:
					s.locs = uints(w, v, pl, s.locs)
				case 2:
					for _, u := range uints(w, v, pl, nil) {
						s.values = append(s.values, int64(u))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location: id=1, line=4 (Line{function_id=1})
			lr := pbReader{b: payload}
			var id uint64
			var fns []uint64
			for len(lr.b) > 0 && lr.err == nil {
				f, _, v, pl := lr.next()
				switch f {
				case 1:
					id = v
				case 4:
					ln := pbReader{b: pl}
					for len(ln.b) > 0 && ln.err == nil {
						lf, _, lv, _ := ln.next()
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function: id=1, name=2, filename=4
			fr := pbReader{b: payload}
			var id uint64
			var fn pfunc
			for len(fr.b) > 0 && fr.err == nil {
				f, _, v, _ := fr.next()
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
			}
			p.funcs[id] = fn
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}
