package daemon

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hoiho/internal/core"
	"hoiho/internal/geodict"
	"hoiho/internal/geoloc"
	"hoiho/internal/psl"
)

const testConventions = `# test conventions
suffix he.net good tp=16 fp=0 fn=0 unk=0 hints=5
regex iata hint ^.+\.core\d+\.([a-z]{3})\d+\.he\.net$
learned iata ash 39.0437 -77.4875 ashburn|va|us tp=4 fp=0 collide=false
`

// TestReloadOnHUP: a SIGHUP delivered to the process swaps a freshly
// resolved index into the live handle, and cancelling the context
// stops the loop.
func TestReloadOnHUP(t *testing.T) {
	res, err := core.ReadConventions(strings.NewReader(testConventions))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := geoloc.Save(&buf, res, nil); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "index.snap")
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	d := New("test", flag.NewFlagSet("test", flag.ContinueOnError))
	d.Parse([]string{"-snapshot", snap})
	opts := geoloc.Options{Dict: geodict.MustDefault(), PSL: psl.MustDefault()}
	resolved, err := d.Source.Resolve(opts)
	if err != nil {
		t.Fatal(err)
	}
	live := geoloc.NewLive(resolved.Index)

	ctx, cancel := context.WithCancel(context.Background())
	done := d.ReloadOnHUP(ctx, live, opts)
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); live.Generation() != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("generation = %d 5s after SIGHUP, want 2", live.Generation())
		}
	}
	if rs := live.ReloadStats(); rs.Reloads != 1 || rs.Failures != 0 {
		t.Errorf("reload stats = %+v, want one successful reload", rs)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGHUP loop did not exit after cancellation")
	}
}
