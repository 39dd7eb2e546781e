package kernel

// SysNo is a syscall number. The kernel historically dispatched on names;
// numbers exist so the flight recorder can log a syscall in one word and
// the per-μprocess accounting can index a fixed counter array without a
// map. String() returns the historical name, so metric keys
// ("syscall.<name>") and chaos-injection site names are unchanged.
type SysNo uint8

const (
	SysGetpid SysNo = iota
	SysYield
	SysExit
	SysFork
	SysWait
	SysOpen
	SysClose
	SysRead
	SysWrite
	SysFsync
	SysPipe
	SysListen
	SysAccept
	SysSbrk
	SysDup
	SysDup2
	SysLseek
	SysUnlink
	SysStat
	SysSigaction
	SysSignalPID
	SysKill
	SysPosixSpawn
	SysShmOpen
	SysShmMap
	SysShmUnlink
	SysProcstat
	SysSmaps
	// NumSysNos sizes per-syscall counter arrays.
	NumSysNos
)

var sysNames = [NumSysNos]string{
	SysGetpid:     "getpid",
	SysYield:      "yield",
	SysExit:       "exit",
	SysFork:       "fork",
	SysWait:       "wait",
	SysOpen:       "open",
	SysClose:      "close",
	SysRead:       "read",
	SysWrite:      "write",
	SysFsync:      "fsync",
	SysPipe:       "pipe",
	SysListen:     "listen",
	SysAccept:     "accept",
	SysSbrk:       "sbrk",
	SysDup:        "dup",
	SysDup2:       "dup2",
	SysLseek:      "lseek",
	SysUnlink:     "unlink",
	SysStat:       "stat",
	SysSigaction:  "sigaction",
	SysSignalPID:  "signal-p-i-d",
	SysKill:       "kill",
	SysPosixSpawn: "posix-spawn",
	SysShmOpen:    "shm-open",
	SysShmMap:     "shm-map",
	SysShmUnlink:  "shm-unlink",
	SysProcstat:   "procstat",
	SysSmaps:      "smaps",
}

func (n SysNo) String() string {
	if n < NumSysNos {
		return sysNames[n]
	}
	return "sys-unknown"
}
