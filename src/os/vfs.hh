/**
 * @file
 * In-memory filesystem (ramfs): naming, inodes and the page cache maps.
 *
 * The design mirrors a commodity kernel's split between the VFS layer
 * and the page cache. An inode's *persistent* contents live in its
 * diskData vector (the simulated disk); reads and writes go through
 * page-cache frames in guest physical memory. For cloaked files the
 * page-cache frames hold plaintext only in the owning application's
 * view; the moment the kernel copies a page (read()/write()/writeback),
 * it sees ciphertext — so diskData naturally stores ciphertext for
 * cloaked files.
 *
 * Path rules: absolute ("/a/b"), no ".", "..", or symlinks.
 *
 * This header holds the data structures and naming logic only; the
 * Kernel drives page-cache population/writeback because those copies
 * must run through the current thread's kernel-view Vcpu.
 */

#ifndef OSH_OS_VFS_HH
#define OSH_OS_VFS_HH

#include "base/stats.hh"
#include "base/types.hh"
#include "os/syscalls.hh"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace osh::os
{

using InodeId = std::uint64_t;

enum class InodeType : std::uint8_t { File, Directory };

/** One cached page of a file. */
struct PageCacheEntry
{
    Gpa gpa = badAddr;
    bool dirty = false;
    /** Number of guest PTEs currently mapping this page (mmap). */
    std::uint32_t mapCount = 0;
};

/** An inode: regular file or directory. */
struct Inode
{
    InodeId id = 0;
    InodeType type = InodeType::File;

    // References: the inode lives while any of these is nonzero
    // (Vfs::reapIfUnreferenced).
    std::uint32_t nlink = 0;     ///< Directory references.
    std::uint32_t openCount = 0; ///< Live file descriptors.
    std::uint32_t vmaCount = 0;  ///< File VMAs mapping it (mmap).

    // Regular files.
    std::uint64_t size = 0;
    std::vector<std::uint8_t> diskData;       ///< Persistent contents.
    std::map<std::uint64_t, PageCacheEntry> cache;  ///< pageIdx -> frame.

    // Directories.
    std::map<std::string, InodeId> entries;

    bool isDir() const { return type == InodeType::Directory; }
};

/** Naming layer plus inode table. */
class Vfs
{
  public:
    Vfs();

    /** Root directory inode id. */
    InodeId root() const { return rootId_; }

    Inode& inode(InodeId id);
    const Inode& inode(InodeId id) const;
    bool exists(InodeId id) const;

    /** Resolve an absolute path; negative Err on failure. */
    std::int64_t lookup(const std::string& path) const;

    /**
     * Create a file or directory at an absolute path. Fails if it
     * exists or the parent is missing. Returns the new inode id.
     */
    std::int64_t create(const std::string& path, InodeType type);

    /**
     * Unlink a file (directories must be empty). The inode survives
     * while descriptors or mappings reference it; the caller reaps it
     * with reapIfUnreferenced. Returns 0 or negative Err.
     */
    std::int64_t unlink(const std::string& path);

    /** Rename (same-filesystem move). Returns 0 or negative Err. */
    std::int64_t rename(const std::string& from, const std::string& to);

    /**
     * Name of the index-th entry of a directory; errNoEnt when past the
     * end. Used by the ReadDir syscall.
     */
    std::int64_t dirEntry(InodeId dir, std::uint64_t index,
                          std::string& name_out) const;

    /**
     * Drop an inode if it is fully unreferenced (no links, no open
     * descriptors, no file mappings). Returns the page-cache entries
     * that must be freed by the caller (the kernel owns frame
     * accounting).
     */
    std::vector<PageCacheEntry> reapIfUnreferenced(InodeId id);

    /**
     * Ids of every live inode, in id order. The attack campaign's leak
     * oracle walks these to scan all kernel-visible file bytes.
     */
    std::vector<InodeId> inodeIds() const;

    /** Number of live inodes, the root included. */
    std::size_t inodeCount() const { return inodes_.size(); }

    StatGroup& stats() { return stats_; }

  private:
    struct PathParts
    {
        InodeId parent;
        std::string leaf;
    };

    /** Split a path into (existing parent dir, leaf name). */
    std::int64_t resolveParent(const std::string& path,
                               PathParts& out) const;

    static std::vector<std::string> splitPath(const std::string& path);

    std::map<InodeId, std::unique_ptr<Inode>> inodes_;
    InodeId rootId_;
    InodeId nextId_ = 1;
    StatGroup stats_;
};

} // namespace osh::os

#endif // OSH_OS_VFS_HH
