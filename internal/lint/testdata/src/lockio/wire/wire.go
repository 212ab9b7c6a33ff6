// Package wire is the cross-package half of the lockio fixture: a
// network helper in another package of the module, called from lockio
// with a mutex held.
package wire

import "net"

// Send writes b to c, dropping the result like a fire-and-forget push.
func Send(c net.Conn, b []byte) {
	c.Write(b)
}
