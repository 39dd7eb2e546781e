// Chaos-harness surface of the virtual-memory substrate: injectable PTE
// install failures and spurious page faults. Inert (one nil compare on the
// translate/map paths) unless a harness arms the hooks.
package vm

import (
	"errors"
	"fmt"
)

// ErrInjected marks a fault-injected mapping failure, so callers and the
// chaos harness can tell deliberate failures from real bugs.
var ErrInjected = errors.New("vm: injected PTE install failure")

// Hooks are the optional chaos interception points of one address space.
type Hooks struct {
	// FailMap, when non-nil, is consulted before every PTE install; a true
	// return fails the Map with ErrInjected and no state change, modelling
	// page-table allocation failure mid-fork or mid-load.
	FailMap func(vpn VPN) bool
	// SpuriousFault, when non-nil, may turn an otherwise-successful WRITE
	// translation of a writable, singly-referenced page into a spurious
	// write-protect fault. The fault handler must resolve it idempotently
	// (last-reference adopt) and the retried access must succeed — the
	// re-entrant fault path real TLBs exercise. The hook is only consulted
	// in exactly that safe shape, so a correct handler is semantically
	// invisible; a handler that double-copies or loses tags is not.
	SpuriousFault func(vpn VPN) bool
}

// SetHooks installs (or, with nil, removes) the chaos interception points.
func (as *AddressSpace) SetHooks(h *Hooks) { as.hooks = h }

// injectMapFailure consults the FailMap hook before a PTE install.
func (as *AddressSpace) injectMapFailure(vpn VPN) error {
	if as.hooks != nil && as.hooks.FailMap != nil && as.hooks.FailMap(vpn) {
		return fmt.Errorf("%w: vpn %#x", ErrInjected, vpn)
	}
	return nil
}
