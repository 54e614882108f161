#include "migrate/checkpoint.hh"

#include "base/bytes.hh"
#include "base/logging.hh"

#include <algorithm>
#include <cstring>

namespace osh::migrate
{

namespace
{

/** Parsed (but not yet applied) restore state; mutation of the target
 *  machine starts only after the entire image has verified. */
struct ParsedImage
{
    std::uint64_t imageVersion = 0;
    crypto::Digest identity{};
    std::string program;
    std::vector<std::string> argv;

    GuestVA mmapCursor = 0;
    GuestVA fileMapCursor = 0;
    GuestVA ctcVa = 0;
    GuestVA bounceVa = 0;
    cloak::CtcDigest ctc;
    bool haveProcess = false;

    std::vector<os::Vma> vmas;

    struct RegionRec
    {
        GuestVA start = 0;
        std::uint64_t pages = 0;
        std::uint64_t resourceIndex = 0;
        std::uint64_t resourcePageOffset = 0;
    };
    std::vector<RegionRec> regions;

    struct ResourceRec
    {
        ResourceId keyId = 0;
        std::map<std::uint64_t, cloak::PageMeta> pages;
    };
    std::vector<ResourceRec> resources;

    StagedPages pages;

    std::map<std::uint64_t, std::uint64_t> floors;
};

Expected<ParsedImage, MigrateError>
parseManifest(const Record& rec, const Ticket& ticket)
{
    if (rec.type != RecordType::Manifest)
        return Error(MigrateError::BadRecord);
    PayloadReader pr(rec.payload);
    std::array<std::uint8_t, 8> magic;
    pr.bytes(magic);
    if (!pr.ok() || magic != imageMagic)
        return Error(MigrateError::BadMagic);
    std::uint64_t format = pr.u64();
    if (!pr.ok() || format != imageFormatVersion)
        return Error(MigrateError::UnsupportedVersion);

    ParsedImage img;
    img.imageVersion = pr.u64();
    pr.bytes(img.identity);
    img.program = pr.str();
    std::uint64_t argc = pr.u64();
    if (!pr.ok() || argc > 1024)
        return Error(MigrateError::BadRecord);
    for (std::uint64_t i = 0; i < argc; ++i)
        img.argv.push_back(pr.str());
    if (!pr.done())
        return Error(MigrateError::BadRecord);

    // The ticket travels out-of-band through the trusted VMM channel;
    // the image came over the untrusted transport. They must agree.
    if (!constantTimeEqual(img.identity, ticket.identity))
        return Error(MigrateError::IdentityMismatch);
    if (img.imageVersion != ticket.imageVersion)
        return Error(MigrateError::ImageRollback);
    return img;
}

Expected<void, MigrateError>
parseRecord(ParsedImage& img, const Record& rec)
{
    PayloadReader pr(rec.payload);
    switch (rec.type) {
      case RecordType::Process: {
        if (img.haveProcess)
            return Error(MigrateError::BadRecord);
        img.mmapCursor = pr.u64();
        img.fileMapCursor = pr.u64();
        img.ctcVa = pr.u64();
        img.bounceVa = pr.u64();
        img.ctc.valid = pr.flag();
        pr.bytes(img.ctc.hash);
        // An invalid digest is imported as all zeros, so only that
        // encodes it.
        if (!pr.done() ||
            (!img.ctc.valid && img.ctc.hash != crypto::Digest{}))
            return Error(MigrateError::BadRecord);
        img.haveProcess = true;
        return {};
      }
      case RecordType::Vma: {
        os::Vma vma;
        vma.start = pr.u64();
        vma.end = pr.u64();
        vma.type = static_cast<os::VmaType>(pr.u8());
        vma.prot = pr.u64();
        vma.shared = pr.flag();
        vma.cloaked = pr.flag();
        vma.inode = pr.u64();
        vma.fileOffset = pr.u64();
        // checkpoint() refuses file mappings, so an image never holds
        // one; a file VMA here would map an inode it holds no
        // reference on. VMAs come in address order and never overlap,
        // as the address space holds them.
        if (!pr.done() || vma.start >= vma.end ||
            vma.start != pageBase(vma.start) ||
            vma.end != pageBase(vma.end) ||
            vma.type != os::VmaType::Anon ||
            (!img.vmas.empty() && vma.start < img.vmas.back().end))
            return Error(MigrateError::BadRecord);
        img.vmas.push_back(vma);
        return {};
      }
      case RecordType::Region: {
        ParsedImage::RegionRec r;
        r.start = pr.u64();
        r.pages = pr.u64();
        r.resourceIndex = pr.u64();
        r.resourcePageOffset = pr.u64();
        // registerRegion would page-align the start and refuse an
        // overlap (by the same test as here); an image holds neither.
        if (!pr.done() || r.start != pageBase(r.start) ||
            r.pages > (~GuestVA{0} - r.start) / pageSize)
            return Error(MigrateError::BadRecord);
        for (const ParsedImage::RegionRec& o : img.regions) {
            if (r.start < o.start + o.pages * pageSize &&
                o.start < r.start + r.pages * pageSize)
                return Error(MigrateError::BadRecord);
        }
        img.regions.push_back(r);
        return {};
      }
      case RecordType::Resource: {
        std::uint64_t index = pr.u64();
        if (index != img.resources.size())
            return Error(MigrateError::BadRecord);
        ParsedImage::ResourceRec res;
        res.keyId = pr.u64();
        cloak::decodePageMetas(pr, res.pages);
        // checkpoint() refuses file resources, so no key id is a file's.
        if (!pr.done() || (res.keyId & cloak::fileKeyTag) != 0)
            return Error(MigrateError::BadRecord);
        img.resources.push_back(std::move(res));
        return {};
      }
      case RecordType::PageData: {
        GuestVA va = pr.u64();
        pr.bytes(img.pages[va]);
        if (!pr.done() || va != pageBase(va))
            return Error(MigrateError::BadRecord);
        return {};
      }
      case RecordType::SealVersion: {
        std::uint64_t file_key = pr.u64();
        std::uint64_t version = pr.u64();
        // Floors come in key order, and a floor is a sealed version.
        if (!pr.done() || version == 0 ||
            (!img.floors.empty() && file_key <= img.floors.rbegin()->first))
            return Error(MigrateError::BadRecord);
        img.floors[file_key] = version;
        return {};
      }
      default:
        return Error(MigrateError::BadRecord);
    }
}

/** Whether the sorted, disjoint @p vmas cover [start, end). */
bool
mapped(const std::vector<os::Vma>& vmas, GuestVA start, GuestVA end)
{
    for (const os::Vma& vma : vmas) {
        if (vma.start <= start && start < vma.end)
            start = vma.end;
    }
    return start >= end;
}

/** The current bytes of a page: its frame if present, its swap slot if
 *  swapped-out, nothing if never materialized. */
bool
pageBytes(system::System& sys, const os::Pte& pte,
          std::array<std::uint8_t, pageSize>& out)
{
    if (pte.present) {
        auto frame = sys.vmm().machine().memory().framePlain(
            sys.vmm().pmap().translate(pageBase(pte.gpa)));
        std::memcpy(out.data(), frame.data(), out.size());
        return true;
    }
    if (pte.swapped) {
        auto bytes = sys.kernel().swap().slotBytes(pte.slot);
        std::memcpy(out.data(), bytes.data(), out.size());
        return true;
    }
    return false;
}

} // namespace

bool
capturePage(system::System& sys, Pid pid, GuestVA va_page,
            std::array<std::uint8_t, pageSize>& out)
{
    os::Process* proc = sys.kernel().findProcess(pid);
    if (proc == nullptr)
        return false;
    const os::Pte* pte = proc->as.findPte(va_page);
    if (pte == nullptr || (!pte->present && !pte->swapped))
        return false;
    return pageBytes(sys, *pte, out);
}

Expected<CheckpointResult, MigrateError>
checkpoint(system::System& sys, Pid pid, const CheckpointOptions& options)
{
    cloak::CloakEngine* engine = sys.cloak();
    if (engine == nullptr)
        return Error(MigrateError::NoCloaking);
    os::Process* proc = sys.kernel().findProcess(pid);
    if (proc == nullptr || !proc->cloaked ||
        proc->domain == systemDomain)
        return Error(MigrateError::UnsupportedState);
    cloak::Domain* domain = engine->findDomain(proc->domain);
    if (domain == nullptr)
        return Error(MigrateError::UnsupportedState);

    // Quiesce precondition: the victim must be parked at a trap
    // boundary (or not have run since its own restore) — otherwise its
    // guest memory can be mid-update and host-stack state would be
    // silently dropped.
    os::Thread* t = sys.kernel().threadOf(pid);
    // A just-restored process has no bound thread until its first run:
    // quiesced by definition (re-checkpoint before resume is legal).
    osh_assert(t == nullptr || sys.kernel().isFrozen(pid) ||
                   t->state == os::Thread::State::Ready,
               "checkpoint of a running (unquiesced) process");

    // Retire any in-flight async evictions before touching swap or
    // sealing: the image must carry fully committed ciphertext.
    sys.vmm().drainAsyncEvictions();

    // State this format cannot carry travels as a typed refusal, not a
    // truncated image: open descriptors (kernel-side file/pipe state),
    // file mappings (page-cache residency), regions over a protected
    // file (its bundle stays on this machine's disk) and live children.
    for (const auto& f : proc->fds) {
        if (f)
            return Error(MigrateError::UnsupportedState);
    }
    for (const auto& [start, vma] : proc->as.vmas()) {
        if (vma.type != os::VmaType::Anon)
            return Error(MigrateError::UnsupportedState);
    }
    // Resources are numbered by first appearance over the domain's
    // regions — a canonical order that survives the trip: the restored
    // domain registers regions in image order, so re-checkpointing
    // reproduces the numbering (and the bytes) exactly.
    std::map<ResourceId, std::uint64_t> canonical;
    std::vector<const cloak::Resource*> ordered;
    for (const cloak::Region& r : domain->regions) {
        cloak::Resource* res =
            engine->metadata().lookup(r.resource).valueOr(nullptr);
        osh_assert(res != nullptr, "domain region names a dead resource");
        if (res->isFile)
            return Error(MigrateError::UnsupportedState);
        if (canonical.emplace(r.resource, ordered.size()).second)
            ordered.push_back(res);
    }
    for (Pid other : sys.kernel().pids()) {
        os::Process* p = sys.kernel().findProcess(other);
        if (p != nullptr && p->ppid == pid)
            return Error(MigrateError::UnsupportedState);
    }

    CheckpointResult result;
    result.ticket.identity = domain->identity;
    result.ticket.imageVersion = options.imageVersion;
    result.ticket.nonce = options.nonce;

    // Canonical form: every resident plaintext page is encrypted in
    // place first, so the image carries only ciphertext + metadata.
    result.pagesSealed = engine->sealDomainPlaintext(domain->id);

    ImageWriter writer(engine->migrationKey(options.nonce));

    {
        PayloadWriter p;
        p.bytes(imageMagic);
        p.u64(imageFormatVersion);
        p.u64(options.imageVersion);
        p.bytes(domain->identity);
        p.str(proc->programName);
        p.u64(proc->argv.size());
        for (const std::string& a : proc->argv)
            p.str(a);
        writer.append(RecordType::Manifest, p.view());
    }
    {
        PayloadWriter p;
        p.u64(proc->as.mmapCursor());
        p.u64(proc->as.fileMapCursor());
        p.u64(domain->ctcVa);
        p.u64(domain->bounceVa);
        cloak::CtcDigest ctc = engine->exportCtcDigest(domain->id);
        p.flag(ctc.valid);
        p.bytes(ctc.hash);
        writer.append(RecordType::Process, p.view());
    }
    for (const auto& [start, vma] : proc->as.vmas()) {
        PayloadWriter p;
        p.u64(vma.start);
        p.u64(vma.end);
        p.u8(static_cast<std::uint8_t>(vma.type));
        p.u64(vma.prot);
        p.flag(vma.shared);
        p.flag(vma.cloaked);
        p.u64(vma.inode);
        p.u64(vma.fileOffset);
        writer.append(RecordType::Vma, p.view());
    }

    for (const cloak::Region& r : domain->regions) {
        PayloadWriter p;
        p.u64(r.start);
        p.u64((r.end - r.start) / pageSize);
        p.u64(canonical[r.resource]);
        p.u64(r.resourcePageOffset);
        writer.append(RecordType::Region, p.view());
    }
    for (std::uint64_t i = 0; i < ordered.size(); ++i) {
        PayloadWriter p;
        p.u64(i);
        p.u64(ordered[i]->keyId);
        cloak::encodePageMetas(p, ordered[i]->pages);
        writer.append(RecordType::Resource, p.view());
    }

    std::vector<GuestVA> vas;
    for (const auto& [va, pte] : proc->as.ptes()) {
        if (pte.present || pte.swapped)
            vas.push_back(va);
    }
    std::sort(vas.begin(), vas.end());
    std::array<std::uint8_t, pageSize> buf;
    for (GuestVA va : vas) {
        if (options.pageFilter != nullptr &&
            options.pageFilter->count(va) == 0)
            continue;
        const os::Pte* pte = proc->as.findPte(va);
        if (!pageBytes(sys, *pte, buf))
            continue;
        PayloadWriter p;
        p.u64(va);
        p.bytes(buf);
        writer.append(RecordType::PageData, p.view());
        ++result.pagesCaptured;
    }

    for (const auto& [file_key, version] :
         engine->metadata().floorsOwnedBy(domain->identity)) {
        PayloadWriter p;
        p.u64(file_key);
        p.u64(version);
        writer.append(RecordType::SealVersion, p.view());
    }

    result.image = writer.finish();
    return result;
}

Expected<RestoreResult, MigrateError>
restore(system::System& sys, std::span<const std::uint8_t> image,
        const Ticket& ticket, const StagedPages* staged)
{
    cloak::CloakEngine* engine = sys.cloak();
    if (engine == nullptr)
        return Error(MigrateError::NoCloaking);

    ImageReader reader(engine->migrationKey(ticket.nonce), image);
    auto first = reader.next();
    if (!first.ok())
        return Error(first.error());
    auto parsed = parseManifest(*first, ticket);
    if (!parsed.ok())
        return Error(parsed.error());
    ParsedImage& img = *parsed;

    const os::Program* prog = sys.programs().find(img.program);
    if (prog == nullptr)
        return Error(MigrateError::UnknownProgram);
    // The manifest identity must be the program's attested identity —
    // a renamed manifest cannot hijack another program's protection.
    if (!prog->cloaked ||
        !constantTimeEqual(cloak::programIdentity(img.program),
                           img.identity))
        return Error(MigrateError::IdentityMismatch);

    while (!reader.atEnd()) {
        auto rec = reader.next();
        if (!rec.ok())
            return Error(rec.error());
        const Record& r = *rec;
        if (r.type == RecordType::End)
            break;
        if (r.type == RecordType::Manifest)
            return Error(MigrateError::BadRecord);
        auto applied = parseRecord(img, r);
        if (!applied.ok())
            return Error(applied.error());
    }
    if (!img.haveProcess || img.vmas.empty())
        return Error(MigrateError::BadRecord);
    // Resources are numbered by first appearance over the regions, and
    // every one is named by a region: the order checkpoint() writes.
    // Every region lies in mapped memory.
    std::uint64_t named = 0;
    for (const ParsedImage::RegionRec& r : img.regions) {
        if (!mapped(img.vmas, r.start, r.start + r.pages * pageSize) ||
            r.resourceIndex > named ||
            r.resourceIndex >= img.resources.size())
            return Error(MigrateError::BadRecord);
        if (r.resourceIndex == named)
            ++named;
    }
    if (named != img.resources.size())
        return Error(MigrateError::BadRecord);

    // Everything verified — mutate the target machine. Nothing below
    // can fail with a user-visible error (asserts only), so a refused
    // image never leaves a half-restored process behind.
    os::Process& proc =
        sys.kernel().createProcess(img.program, img.argv);
    osh_assert(proc.cloaked, "restored program lost its cloaked flag");

    for (const os::Vma& vma : img.vmas) {
        bool ok = proc.as.addVma(vma);
        osh_assert(ok, "restored VMA collision");
    }
    proc.as.setMmapCursor(img.mmapCursor);
    proc.as.setFileMapCursor(img.fileMapCursor);

    // Merge pre-copied pages under the image's final page set, then
    // materialize everything as swap-resident: first touch takes the
    // ordinary demand-paging path (swap-in, then cloak decrypt+verify
    // against the imported metadata), so rehydration reuses the exact
    // machinery that defends against a hostile kernel.
    StagedPages merged;
    if (staged != nullptr) {
        for (const auto& [va, bytes] : *staged) {
            if (proc.as.findVma(va) != nullptr)
                merged[va] = bytes;
        }
    }
    for (const auto& [va, bytes] : img.pages)
        merged[va] = bytes;

    RestoreResult result;
    for (const auto& [va, bytes] : merged) {
        auto slot = sys.kernel().swap().allocate();
        osh_assert(slot.has_value(), "swap device full during restore");
        sys.kernel().swap().writeSlot(*slot, bytes);
        os::Pte& pte = proc.as.pte(va);
        pte.present = false;
        pte.swapped = true;
        pte.slot = *slot;
        pte.gpa = badAddr;
        pte.user = true;
        pte.cow = false;
        ++result.pagesMaterialized;
    }

    DomainId domain =
        engine->createDomain(proc.as.asid(), proc.pid, img.identity);
    proc.domain = domain;
    std::vector<ResourceId> local;
    local.reserve(img.resources.size());
    for (const ParsedImage::ResourceRec& r : img.resources) {
        cloak::Resource& res = engine->importResource(domain, r.keyId);
        engine->metadata().replacePages(res, r.pages);
        local.push_back(res.id);
    }
    for (const ParsedImage::RegionRec& r : img.regions) {
        bool ok = engine->registerRegion(domain, r.start, r.pages,
                                         local[r.resourceIndex],
                                         r.resourcePageOffset)
                      .ok();
        osh_assert(ok, "restored region overlap");
    }
    engine->bindThread(domain, img.ctcVa, img.bounceVa);
    engine->importCtcDigest(domain, img.ctc);
    engine->metadata().importFloors(img.floors, img.identity);

    sys.startRestoredProcess(proc);
    result.pid = proc.pid;
    return result;
}

} // namespace osh::migrate
