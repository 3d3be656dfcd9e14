// Package topology describes the logical machine the BFS algorithms run
// on: how many sockets, cores per socket and SMT threads per core, and
// how vertices and worker threads map onto sockets.
//
// On the paper's hardware (Table I) the mapping is physical — pthreads
// pinned with the affinity libraries. Here the topology is *logical*:
// it drives the same data partitioning, queue layout and channel wiring
// as the paper's Algorithm 3, and it parameterizes the machine-model
// simulator that reproduces the paper's scaling figures at full scale.
// Pinning is optional and separate: core.Options.PinThreads binds each
// worker to a CPU on Linux (internal/affinity).
package topology

import "fmt"

// Machine describes one shared-memory system.
type Machine struct {
	// Name identifies the configuration in reports, e.g. "Nehalem-EP".
	Name string
	// Sockets is the number of processor sockets.
	Sockets int
	// CoresPerSocket is the number of physical cores per socket.
	CoresPerSocket int
	// ThreadsPerCore is the SMT width (2 on both Nehalem parts).
	ThreadsPerCore int
	// ClockGHz is the core frequency in GHz.
	ClockGHz float64
	// L1KB, L2KB are per-core cache sizes in KB; L3MB is the per-socket
	// shared last-level cache in MB.
	L1KB, L2KB int
	L3MB       int
	// CacheLineBytes is the coherence granularity.
	CacheLineBytes int
	// MemChannels is the number of DDR3 channels per socket.
	MemChannels int
	// MemoryGB is the installed memory in GB.
	MemoryGB int
	// MaxOutstanding is the per-core limit on in-flight memory requests
	// (the paper measures ~10 on both EP and EX, rising to ~50 and ~75
	// aggregate per socket with SMT).
	MaxOutstanding int
}

// NehalemEP is the dual-socket Xeon X5570 system of Table I.
var NehalemEP = Machine{
	Name:           "Nehalem-EP",
	Sockets:        2,
	CoresPerSocket: 4,
	ThreadsPerCore: 2,
	ClockGHz:       2.93,
	L1KB:           32,
	L2KB:           256,
	L3MB:           8,
	CacheLineBytes: 64,
	MemChannels:    3,
	MemoryGB:       48,
	MaxOutstanding: 10,
}

// NehalemEX is the four-socket Xeon 7560 system of Table I.
var NehalemEX = Machine{
	Name:           "Nehalem-EX",
	Sockets:        4,
	CoresPerSocket: 8,
	ThreadsPerCore: 2,
	ClockGHz:       2.26,
	L1KB:           32,
	L2KB:           256,
	L3MB:           24,
	CacheLineBytes: 64,
	MemChannels:    4,
	MemoryGB:       256,
	MaxOutstanding: 10,
}

// Generic returns a machine with the given shape and EP-like cache
// parameters, for tests and for mapping onto arbitrary hosts.
func Generic(sockets, coresPerSocket, threadsPerCore int) Machine {
	return Machine{
		Name:           fmt.Sprintf("generic-%ds%dc%dt", sockets, coresPerSocket, threadsPerCore),
		Sockets:        sockets,
		CoresPerSocket: coresPerSocket,
		ThreadsPerCore: threadsPerCore,
		ClockGHz:       2.93,
		L1KB:           32,
		L2KB:           256,
		L3MB:           8,
		CacheLineBytes: 64,
		MemChannels:    3,
		MemoryGB:       48,
		MaxOutstanding: 10,
	}
}

// Validate checks that the machine description is usable.
func (m Machine) Validate() error {
	if m.Sockets < 1 {
		return fmt.Errorf("topology: %q has %d sockets", m.Name, m.Sockets)
	}
	if m.CoresPerSocket < 1 {
		return fmt.Errorf("topology: %q has %d cores per socket", m.Name, m.CoresPerSocket)
	}
	if m.ThreadsPerCore < 1 {
		return fmt.Errorf("topology: %q has %d threads per core", m.Name, m.ThreadsPerCore)
	}
	return nil
}

// TotalCores returns the number of physical cores in the machine.
func (m Machine) TotalCores() int { return m.Sockets * m.CoresPerSocket }

// TotalThreads returns the number of hardware threads in the machine
// (64 for the 4-socket EX, 16 for the EP).
func (m Machine) TotalThreads() int {
	return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore
}

// SocketOfThread maps a worker thread id in [0, nThreads) to its socket
// following the paper's affinity policy (Table I): one thread per
// physical core first, walking sockets in order, then a second SMT pass
// over the same cores. On the EP this yields the published map
// "Proc 0: threads 0-3 & 8-11, Proc 1: 4-7 & 12-15"; on the EX
// "Proc 0: 0-7 & 32-39" and so on.
func (m Machine) SocketOfThread(thread, nThreads int) int {
	if thread < 0 || thread >= nThreads {
		panic(fmt.Sprintf("topology: thread %d out of range [0,%d)", thread, nThreads))
	}
	return (thread / m.CoresPerSocket) % m.Sockets
}

// SocketsForThreads returns how many sockets a run with nThreads workers
// spans under the SocketOfThread policy: nThreads <= CoresPerSocket
// stays on one socket (the paper's single-socket algorithm applies);
// beyond that, cores of further sockets are engaged before SMT.
func (m Machine) SocketsForThreads(nThreads int) int {
	if nThreads < 1 {
		return 1
	}
	s := (nThreads + m.CoresPerSocket - 1) / m.CoresPerSocket
	if s > m.Sockets {
		s = m.Sockets
	}
	return s
}

// Partition maps vertices onto sockets in contiguous equal blocks, the
// paper's "allocate n/sockets nodes to each socket" (Algorithm 3 line
// 2). DetermineSocket is O(1), but it is an integer division by the
// block size, which compiles to IDIV on amd64. A hot loop that only
// needs "is v mine?" should test v against its own Range instead.
type Partition struct {
	n       int
	sockets int
	block   int
}

// NewPartition partitions n vertices over the given number of sockets.
func NewPartition(n, sockets int) (Partition, error) {
	if n < 0 {
		return Partition{}, fmt.Errorf("topology: negative vertex count %d", n)
	}
	if sockets < 1 {
		return Partition{}, fmt.Errorf("topology: partition needs >= 1 socket, got %d", sockets)
	}
	block := (n + sockets - 1) / sockets
	if block == 0 {
		block = 1
	}
	return Partition{n: n, sockets: sockets, block: block}, nil
}

// Sockets returns the number of sockets in the partition.
func (p Partition) Sockets() int { return p.sockets }

// DetermineSocket returns the socket owning vertex v (the paper's
// DetermineSocket(v)).
func (p Partition) DetermineSocket(v uint32) int {
	s := int(v) / p.block
	if s >= p.sockets {
		s = p.sockets - 1
	}
	return s
}

// Range returns the vertex range [lo, hi) owned by socket s.
func (p Partition) Range(s int) (lo, hi int) {
	lo = s * p.block
	hi = lo + p.block
	if lo > p.n {
		lo = p.n
	}
	if hi > p.n {
		hi = p.n
	}
	return lo, hi
}
