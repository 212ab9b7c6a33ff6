// The interprocedural half of the lockio fixture: held calls that
// reach network I/O or a blocking operation through in-module helpers
// are flagged at the call site with a witness chain, and formatting
// into a network writer under the lock is caught as I/O even though
// the callee is fmt or io.
package lockio

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"

	"lockio/wire"
)

func (s *srv) rawWrite(b []byte) {
	s.conn.Write(b) // no lock held here: silent
}

func (s *srv) flush(b []byte) {
	s.rawWrite(b)
}

// Two frames removed: flush → rawWrite → Conn.Write. Only the module
// engine's summary can see the I/O from here.
func (s *srv) badHeldFlush(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flush(b) // want `call to srv.flush while s.mu is held transitively reaches network I/O \(srv.flush → srv.rawWrite → Conn.Write\)`
}

// The same laundering across a package boundary: wire.Send's summary
// reaches Conn.Write in another package of the module.
func (s *srv) badHeldSend(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wire.Send(s.conn, b) // want `call to wire.Send while s.mu is held transitively reaches network I/O \(wire.Send → Conn.Write\)`
}

func (s *srv) goodUnlockedFlush(b []byte) {
	s.mu.Lock()
	n := len(b)
	s.mu.Unlock()
	s.flush(b[:n])
}

func wait(ch chan int) int {
	return <-ch
}

func (s *srv) badHeldWait(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return wait(ch) // want `call to lockio.wait while s.mu is held can block \(lockio.wait → a channel receive\)`
}

// Pure helpers are fine under the lock.
func render(parts []string) string {
	return strings.Join(parts, "\n")
}

func (s *srv) goodPureHeld(parts []string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return render(parts)
}

// The corpusd /metrics shape: formatting straight into the
// ResponseWriter under the lock is network I/O under the lock.
func (s *srv) badMetricsPage(w http.ResponseWriter, rounds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "gossip_rounds %d\n", rounds) // want `fmt.Fprintf into a network writer while s.mu is held`
}

func (s *srv) badCopyHeld(w http.ResponseWriter, r io.Reader) {
	s.mu.Lock()
	defer s.mu.Unlock()
	io.Copy(w, r) // want `io.Copy into a network writer while s.mu is held`
}

// The sanctioned fix: render into a buffer under the lock, write it
// out after unlocking.
func (s *srv) goodBufferedMetrics(w http.ResponseWriter, rounds int) {
	var buf bytes.Buffer
	s.mu.Lock()
	fmt.Fprintf(&buf, "gossip_rounds %d\n", rounds)
	s.mu.Unlock()
	w.Write(buf.Bytes())
}

func (s *srv) allowedHeldFlush(b []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//gossiplint:allow lockio fixture proves transitive findings are suppressible
	s.flush(b)
}
