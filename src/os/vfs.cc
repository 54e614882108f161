#include "os/vfs.hh"

#include "base/logging.hh"

namespace osh::os
{

constexpr StatNames vfsStat{
    "dirs_created", "files_created", "inodes_reaped", "unlinks",
};

Vfs::Vfs() : stats_("vfs", vfsStat.names)
{
    auto root = std::make_unique<Inode>();
    root->id = nextId_++;
    root->type = InodeType::Directory;
    root->nlink = 1;
    rootId_ = root->id;
    inodes_[rootId_] = std::move(root);
}

Inode&
Vfs::inode(InodeId id)
{
    auto it = inodes_.find(id);
    osh_assert(it != inodes_.end(), "bad inode id %llu",
               static_cast<unsigned long long>(id));
    return *it->second;
}

const Inode&
Vfs::inode(InodeId id) const
{
    auto it = inodes_.find(id);
    osh_assert(it != inodes_.end(), "bad inode id %llu",
               static_cast<unsigned long long>(id));
    return *it->second;
}

bool
Vfs::exists(InodeId id) const
{
    return inodes_.count(id) != 0;
}

std::vector<std::string>
Vfs::splitPath(const std::string& path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/') {
            if (!cur.empty()) {
                parts.push_back(cur);
                cur.clear();
            }
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

std::int64_t
Vfs::lookup(const std::string& path) const
{
    if (path.empty() || path[0] != '/')
        return -errInval;
    InodeId cur = rootId_;
    for (const std::string& part : splitPath(path)) {
        const Inode& node = inode(cur);
        if (!node.isDir())
            return -errNotDir;
        auto it = node.entries.find(part);
        if (it == node.entries.end())
            return -errNoEnt;
        cur = it->second;
    }
    return static_cast<std::int64_t>(cur);
}

std::int64_t
Vfs::resolveParent(const std::string& path, PathParts& out) const
{
    if (path.empty() || path[0] != '/')
        return -errInval;
    auto parts = splitPath(path);
    if (parts.empty())
        return -errInval; // Cannot operate on the root itself.
    InodeId cur = rootId_;
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
        const Inode& node = inode(cur);
        if (!node.isDir())
            return -errNotDir;
        auto it = node.entries.find(parts[i]);
        if (it == node.entries.end())
            return -errNoEnt;
        cur = it->second;
    }
    if (!inode(cur).isDir())
        return -errNotDir;
    out.parent = cur;
    out.leaf = parts.back();
    return 0;
}

std::int64_t
Vfs::create(const std::string& path, InodeType type)
{
    PathParts pp;
    if (std::int64_t err = resolveParent(path, pp); err < 0)
        return err;
    Inode& parent = inode(pp.parent);
    if (parent.entries.count(pp.leaf))
        return -errExist;

    auto node = std::make_unique<Inode>();
    node->id = nextId_++;
    node->type = type;
    node->nlink = 1;
    InodeId id = node->id;
    inodes_[id] = std::move(node);
    parent.entries[pp.leaf] = id;
    stats_.inc(type == InodeType::File ? vfsStat("files_created")
                                       : vfsStat("dirs_created"));
    return static_cast<std::int64_t>(id);
}

std::int64_t
Vfs::unlink(const std::string& path)
{
    PathParts pp;
    if (std::int64_t err = resolveParent(path, pp); err < 0)
        return err;
    Inode& parent = inode(pp.parent);
    auto it = parent.entries.find(pp.leaf);
    if (it == parent.entries.end())
        return -errNoEnt;
    Inode& victim = inode(it->second);
    if (victim.isDir() && !victim.entries.empty())
        return -errBusy;
    osh_assert(victim.nlink > 0, "unlink with zero nlink");
    --victim.nlink;
    parent.entries.erase(it);
    stats_.inc(vfsStat("unlinks"));
    return 0;
}

std::int64_t
Vfs::rename(const std::string& from, const std::string& to)
{
    PathParts src, dst;
    if (std::int64_t err = resolveParent(from, src); err < 0)
        return err;
    if (std::int64_t err = resolveParent(to, dst); err < 0)
        return err;
    Inode& src_dir = inode(src.parent);
    auto it = src_dir.entries.find(src.leaf);
    if (it == src_dir.entries.end())
        return -errNoEnt;
    InodeId moving = it->second;
    Inode& dst_dir = inode(dst.parent);
    if (dst_dir.entries.count(dst.leaf))
        return -errExist;
    src_dir.entries.erase(it);
    dst_dir.entries[dst.leaf] = moving;
    return 0;
}

std::int64_t
Vfs::dirEntry(InodeId dir, std::uint64_t index, std::string& name_out) const
{
    const Inode& node = inode(dir);
    if (!node.isDir())
        return -errNotDir;
    if (index >= node.entries.size())
        return -errNoEnt;
    auto it = node.entries.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(index));
    name_out = it->first;
    return 0;
}

std::vector<PageCacheEntry>
Vfs::reapIfUnreferenced(InodeId id)
{
    auto it = inodes_.find(id);
    if (it == inodes_.end())
        return {};
    Inode& node = *it->second;
    if (node.nlink > 0 || node.openCount > 0 || node.vmaCount > 0 ||
        node.id == rootId_)
        return {};
    std::vector<PageCacheEntry> pages;
    pages.reserve(node.cache.size());
    for (auto& [idx, entry] : node.cache)
        pages.push_back(entry);
    inodes_.erase(it);
    stats_.inc(vfsStat("inodes_reaped"));
    return pages;
}

std::vector<InodeId>
Vfs::inodeIds() const
{
    std::vector<InodeId> ids;
    ids.reserve(inodes_.size());
    for (const auto& [id, node] : inodes_)
        ids.push_back(id);
    return ids;
}

} // namespace osh::os
