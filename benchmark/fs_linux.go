package main

import (
	"fmt"
	"syscall"
)

// fsType names the filesystem the data directories live on: fsync cost
// is the filesystem's, so every result records it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown filesystem"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
}

// settleDisk flushes the dirty pages earlier work left behind (the
// build's cache, a previous run's data) so that their writeback does
// not compete with the fsyncs the window measures.
func settleDisk() { syscall.Sync() }
