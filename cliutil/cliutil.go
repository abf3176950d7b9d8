// Package cliutil carries the small pieces shared by the repo's
// command-line binaries. It sits outside internal/ because cmd/ is
// held to the public-SDK import boundary (see the CI check); nothing
// here is part of the simulation SDK proper.
package cliutil

import (
	"context"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"containerdrone"
)

// SignalContext returns a context canceled on the first SIGINT or
// SIGTERM — the graceful-shutdown root every CLI hangs its work off.
// One signal cancels the context so in-flight runs return partial
// results and summaries, output files, and drains flush instead of
// being lost; a second signal falls through to Go's default handler
// and kills the process immediately. The returned stop func cancels
// the context and releases the signal registration (restoring default
// delivery) and should be deferred by the caller.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// StringList is a repeatable string flag (a flag.Value): each
// occurrence appends.
type StringList []string

func (s *StringList) String() string     { return strings.Join(*s, " ") }
func (s *StringList) Set(v string) error { *s = append(*s, v); return nil }

// ParseSweeps parses repeated -sweep values ("key=v1,v2,...") into the
// campaign sweeps they name, in flag order.
func ParseSweeps(specs []string) ([]containerdrone.Sweep, error) {
	var out []containerdrone.Sweep
	for _, s := range specs {
		sw, err := containerdrone.ParseSweep(s)
		if err != nil {
			return nil, err
		}
		out = append(out, sw)
	}
	return out, nil
}
