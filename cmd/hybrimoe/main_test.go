package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestServeRejectsBadFlags pins that every out-of-range or malformed
// serve input fails before any serving starts, with an error naming the
// offending value.
func TestServeRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-requests", "0"}, "-requests 0"},
		{[]string{"-concurrent", "0"}, "-concurrent 0"},
		{[]string{"-replicas", "0"}, "-replicas 0"},
		{[]string{"-gpus", "0"}, "-gpus 0"},
		{[]string{"-cluster-workers", "0"}, "-cluster-workers 0"},
		{[]string{"-decode-cap", "-1"}, "-decode-cap -1"},
		{[]string{"-deadline", "-1"}, "-deadline -1"},
		{[]string{"-model", "Bogus"}, `"Bogus"`},
		{[]string{"-pools", "1"}, `"1"`},
		{[]string{"-pools", "0:2"}, "0:2"},
		{[]string{"-fail", "1@x:stall"}, `"1@x:stall"`},
		{[]string{"-fail", "1@0.3:melt"}, `"melt"`},
		{[]string{"-fail", "9@0.3:stall"}, "replica 9"},
		{[]string{"-scale-plan", "+1"}, `"+1"`},
		{[]string{"-scale-plan", "-1@0.2"}, "drains fleet"},
		{[]string{"-bogus"}, "bogus"},
	}
	for _, tc := range cases {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out strings.Builder
			err := run(append([]string{"serve"}, tc.args...), &out)
			if err == nil {
				t.Fatalf("serve %v should fail; printed:\n%s", tc.args, out.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("serve %v error %q does not mention %q", tc.args, err, tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("serve %v printed before failing:\n%s", tc.args, out.String())
			}
		})
	}
}

// TestRunRejectsBadSubcommands covers the dispatch errors.
func TestRunRejectsBadSubcommands(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"run"}, {"run", "fig99"}} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run %v should fail", args)
		}
	}
}

// serveTranscript runs serve with args and returns its stdout.
func serveTranscript(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"serve"}, args...), &out); err != nil {
		t.Fatalf("serve %v: %v", args, err)
	}
	return out.String()
}

// TestServeBatchedTranscripts pins the batched serving path end to end:
// a single box and a 3-replica fleet each print a done line for every
// request — the trailing members of a merged batch included — and the
// fleet transcript is identical whether replicas step serially or in
// parallel windows.
func TestServeBatchedTranscripts(t *testing.T) {
	const requests = 12
	base := []string{"-batch", "greedy", "-concurrent", "4",
		"-requests", fmt.Sprint(requests), "-decode-cap", "4"}
	single := serveTranscript(t, base...)
	fleet := serveTranscript(t, append(base, "-replicas", "3", "-router", "affinity")...)
	parallel := serveTranscript(t, append(base, "-replicas", "3", "-router", "affinity",
		"-cluster-workers", "4")...)

	for name, out := range map[string]string{"single box": single, "3 replicas": fleet} {
		for id := 0; id < requests; id++ {
			if want := fmt.Sprintf("req %2d done after", id); !strings.Contains(out, want) {
				t.Fatalf("%s transcript has no %q line:\n%s", name, want, out)
			}
		}
		if got := strings.Count(out, "done after"); got != requests {
			t.Fatalf("%s transcript has %d done lines, want %d:\n%s", name, got, requests, out)
		}
		if !strings.Contains(out, "batching: ") {
			t.Fatalf("%s transcript lacks the batching summary:\n%s", name, out)
		}
	}
	if !strings.Contains(single, " r0 req  0 prefill") {
		t.Fatalf("single-box event lines lack the r0 tag:\n%s", single)
	}
	if fleet != parallel {
		t.Fatalf("-cluster-workers 4 changed the fleet transcript:\nserial:\n%s\nparallel:\n%s", fleet, parallel)
	}
}
