package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// rewindAllowed lists the only fields a tick-0 restore may leave
// different from a cold build, keyed "pkg.Type.field". Everything else
// reachable from a System — every member, every subsystem, every
// pointer — must match field by field, so a field the restore forgets
// fails TestRewindFieldCoverage instead of quietly diverging.
var rewindAllowed = map[string]string{
	// Scratch: fully rewritten before every read.
	"core.System.gcsPayload":         "scratch: fleet uplink encode buffer",
	"core.System.gcsFrame":           "scratch: fleet uplink frame buffer",
	"core.System.violScratch":        "scratch: swarm result violation buffer",
	"core.Drone.sendPayload":         "scratch: host-side encode buffer",
	"core.Drone.sendFrame":           "scratch: host-side frame buffer",
	"core.Drone.hostIn":              "scratch: host controller inputs, rebuilt on every call",
	"core.Drone.cceMotorPayload":     "scratch: CCE motor encode buffer",
	"core.Drone.cceMotorFrame":       "scratch: CCE motor frame buffer",
	"core.System.baseLink":           "scratch: captured when the first jitter window opens, read only while one is open",
	"netsim.Endpoint.drain":          "scratch: Drain's result slice",
	"netsim.Endpoint.ring":           "storage: slots outside the live window (head, count — both compared) are dead",
	"netsim.Network.free":            "buffer pool: payload free list",
	"container.Container.routes":     "cache: resolved container-to-host routes",
	"container.Container.hostRoutes": "cache: resolved host-to-container routes",
	"netsim.Route.gen":               "cache: topology generation of the resolved route",
	"netsim.Route.ep":                "cache: resolved destination endpoint",
	"netsim.Route.tb":                "cache: resolved rate limit",
}

// rewindScenarios reach every kind of run-time mutation a restore must
// undo: a container flood task and a saturated fabric (udpflood), a
// swapped link (jitter), captured replay frames and a replay route
// (mav-replay), a killed controller and failed-over monitor (kill),
// and a cross-member flood on a fleet fabric (swarm-peer-flood).
var rewindScenarios = []string{"udpflood", "jitter", "mav-replay", "kill", "swarm-peer-flood"}

// TestRewindFieldCoverage builds two Systems from the same Config,
// flies one under a decoy seed past attack and fault onset, restores
// it from its tick-0 snapshot under the real seed, and walks both
// object graphs field by field: only rewindAllowed may differ.
func TestRewindFieldCoverage(t *testing.T) {
	for _, name := range rewindScenarios {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg, err := Build(name, Options{Seed: 7, Duration: 20 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			decoy := cfg
			decoy.Seed = 0xDECAF
			warm, err := New(decoy)
			if err != nil {
				t.Fatal(err)
			}
			base := warm.Snapshot()
			warm.Run()
			warm.RestoreFrom(cfg.Seed, base)

			w := rewindWalker{pairs: make(map[uintptr]uintptr)}
			w.walk("System", reflect.ValueOf(cold), reflect.ValueOf(warm))
			for _, d := range w.diffs {
				t.Error(d)
			}
		})
	}
}

// TestRewindWalkerCatchesForgottenField is the walker's own mutation
// check: a field left dirty after the restore must be reported.
func TestRewindWalkerCatchesForgottenField(t *testing.T) {
	cfg, err := Build("udpflood", Options{Seed: 7, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm.drones[0].garbage = 3
	w := rewindWalker{pairs: make(map[uintptr]uintptr)}
	w.walk("System", reflect.ValueOf(cold), reflect.ValueOf(warm))
	if len(w.diffs) != 1 || !strings.Contains(w.diffs[0], "garbage") {
		t.Fatalf("walker reported %q, want exactly the garbage counter", w.diffs)
	}
}

// rewindWalker compares two object graphs of the same shape. Pointers
// are followed once per pair, and a pointer seen again must pair with
// the same counterpart, so aliasing is compared too. Slices compare by
// length and elements (capacity is storage, not state), maps by key,
// funcs by code pointer (closures bind their own System, so only the
// code is comparable), floats bit for bit.
type rewindWalker struct {
	pairs map[uintptr]uintptr
	diffs []string
}

func (w *rewindWalker) fail(path, format string, args ...any) {
	w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, args...))
}

func (w *rewindWalker) walk(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.fail(path, "nil mismatch")
			}
			return
		}
		pa, pb := a.Pointer(), b.Pointer()
		if seen, ok := w.pairs[pa]; ok {
			if seen != pb {
				w.fail(path, "aliases a different object than in the cold build")
			}
			return
		}
		w.pairs[pa] = pb
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		typ := a.Type()
		for i := 0; i < a.NumField(); i++ {
			name := typ.Field(i).Name
			if _, ok := rewindAllowed[typ.String()+"."+name]; ok {
				continue
			}
			w.walk(path+"."+name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			w.fail(path, "length %d, cold build %d", b.Len(), a.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.fail(path, "%d entries, cold build %d", b.Len(), a.Len())
			return
		}
		am, bm := mapByKey(a), mapByKey(b)
		keys := make([]string, 0, len(am))
		for k := range am {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, ok := bm[k]
			if !ok {
				w.fail(path, "missing key %s", k)
				continue
			}
			w.walk(path+"["+k+"]", am[k], bv)
		}
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.fail(path, "nil mismatch")
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.fail(path, "dynamic type %v, cold build %v", b.Elem().Type(), a.Elem().Type())
			return
		}
		w.walk(path, a.Elem(), b.Elem())
	case reflect.Func:
		if a.IsNil() != b.IsNil() || (!a.IsNil() && a.Pointer() != b.Pointer()) {
			w.fail(path, "different function")
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.fail(path, "%v, cold build %v", b.Bool(), a.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.fail(path, "%d, cold build %d", b.Int(), a.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.fail(path, "%d, cold build %d", b.Uint(), a.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			w.fail(path, "%v, cold build %v", b.Float(), a.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.fail(path, "%q, cold build %q", b.String(), a.String())
		}
	default:
		w.fail(path, "unsupported kind %v", a.Kind())
	}
}

// mapByKey indexes a map's values by their printed key, which works
// for the unexported struct keys reflection cannot hand back to
// MapIndex.
func mapByKey(m reflect.Value) map[string]reflect.Value {
	out := make(map[string]reflect.Value, m.Len())
	it := m.MapRange()
	for it.Next() {
		out[fmt.Sprintf("%v", it.Key())] = it.Value()
	}
	return out
}
