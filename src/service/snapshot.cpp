#include "service/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <set>
#include <sstream>

#include "dynamic/mutation.hpp"
#include "fault/fault.hpp"
#include "graph/io.hpp"
#include "service/fileio.hpp"
#include "service/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TIGR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TIGR_HAVE_MMAP 0
#endif

namespace tigr::service {

namespace {

constexpr char kMagic[8] = {'T', 'I', 'G', 'R', 'S', 'N', 'P', '2'};
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kFlagVirtual = 1u << 0;

/** The current (v3) on-disk header; field order gives natural
 *  alignment, so the struct is exactly its 88 wire bytes with no
 *  padding. v3 added the epoch field; the magic stays "TIGRSNP2" as a
 *  family tag, the version field tells the layouts apart. */
struct Header
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t flags;
    std::uint64_t numNodes;
    std::uint64_t numEdges;
    std::uint64_t numVirtualNodes;
    std::uint32_t virtualDegreeBound;
    std::uint32_t virtualLayout;
    std::uint64_t epoch;
    std::uint64_t payloadOffset;
    std::uint64_t payloadBytes;
    std::uint64_t payloadChecksum;
    std::uint64_t headerChecksum;
};

static_assert(sizeof(Header) == 88, "snapshot header must be 88 bytes");
static_assert(std::is_trivially_copyable_v<Header>);

/** The legacy v2 wire header (80 bytes, no epoch). Snapshots written
 *  before the dynamic subsystem still load; their epoch defaults 0. */
struct WireHeaderV2
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t flags;
    std::uint64_t numNodes;
    std::uint64_t numEdges;
    std::uint64_t numVirtualNodes;
    std::uint32_t virtualDegreeBound;
    std::uint32_t virtualLayout;
    std::uint64_t payloadOffset;
    std::uint64_t payloadBytes;
    std::uint64_t payloadChecksum;
    std::uint64_t headerChecksum;
};

static_assert(sizeof(WireHeaderV2) == 80,
              "legacy snapshot header must be 80 bytes");
static_assert(std::is_trivially_copyable_v<WireHeaderV2>);

/** Bytes of the header covered by headerChecksum (everything before
 *  the checksum field itself). */
constexpr std::size_t kHeaderHashedBytes =
    sizeof(Header) - sizeof(std::uint64_t);

/** First payload byte for a given header version. */
constexpr std::uint64_t
headerWireBytes(std::uint32_t version)
{
    return version == 2 ? sizeof(WireHeaderV2) : sizeof(Header);
}

[[noreturn]] void
fail(SnapshotErrorKind kind, const std::string &message)
{
    throw SnapshotError(kind, "tigr: " + message);
}

/** Payload size implied by the header's counts, with overflow guards
 *  (a hostile header must not wrap these multiplications). */
std::uint64_t
expectedPayloadBytes(const Header &h)
{
    if (h.numNodes >= std::numeric_limits<NodeId>::max())
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot declares more nodes than a 32-bit id can name");
    if (h.numEdges > (1ull << 48) || h.numVirtualNodes > (1ull << 48))
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot declares an implausible array size");
    std::uint64_t bytes = (h.numNodes + 1) * sizeof(EdgeIndex) +
                          h.numEdges * sizeof(NodeId) +
                          h.numEdges * sizeof(Weight);
    if (h.flags & kFlagVirtual) {
        bytes += h.numVirtualNodes *
                 (sizeof(NodeId) + 2 * sizeof(EdgeIndex) +
                  sizeof(std::uint32_t));
    }
    return bytes;
}

/** Validate everything a decoded header alone can prove: internal
 *  consistency of the declared geometry. Magic, version, and checksum
 *  are layout-dependent and verified by readHeader(). */
void
validateHeader(const Header &h)
{
    if (h.flags & ~kFlagVirtual)
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot header sets unknown flags");
    if (!(h.flags & kFlagVirtual) && h.numVirtualNodes != 0)
        fail(SnapshotErrorKind::Inconsistent,
             "virtual node count without a virtual section");
    if (h.payloadOffset != headerWireBytes(h.version))
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot payload offset does not follow the header");
    if (h.payloadBytes != expectedPayloadBytes(h))
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot payload size disagrees with its array counts");
    if (h.virtualLayout > 1)
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot declares an unknown edge layout");
}

/**
 * Read, version-dispatch, and authenticate a header through any
 * cursor, in diagnosis order: magic (is this even ours), version (do
 * we know its layout), checksum (is it intact). A v2 header is widened
 * to the in-memory Header with epoch 0; the version field keeps the
 * wire version so later checks know where the payload starts.
 */
template <typename Cursor>
Header
readHeader(Cursor &cursor)
{
    unsigned char raw[sizeof(Header)];
    cursor.read(raw, sizeof(WireHeaderV2));
    // Both layouts put magic at 0 and version at 8.
    std::uint32_t version;
    if (std::memcmp(raw, kMagic, sizeof(kMagic)) != 0)
        fail(SnapshotErrorKind::BadMagic,
             "not a TIGRSNP2 snapshot (bad magic)");
    std::memcpy(&version, raw + sizeof(kMagic), sizeof(version));
    Header h{};
    if (version == 2) {
        WireHeaderV2 v2{};
        std::memcpy(&v2, raw, sizeof(WireHeaderV2));
        if (graph::fnv1a64(&v2, sizeof(WireHeaderV2) -
                                    sizeof(std::uint64_t)) !=
            v2.headerChecksum)
            fail(SnapshotErrorKind::ChecksumMismatch,
                 "snapshot header fails its checksum");
        std::memcpy(h.magic, v2.magic, sizeof(h.magic));
        h.version = v2.version;
        h.flags = v2.flags;
        h.numNodes = v2.numNodes;
        h.numEdges = v2.numEdges;
        h.numVirtualNodes = v2.numVirtualNodes;
        h.virtualDegreeBound = v2.virtualDegreeBound;
        h.virtualLayout = v2.virtualLayout;
        h.epoch = 0;
        h.payloadOffset = v2.payloadOffset;
        h.payloadBytes = v2.payloadBytes;
        h.payloadChecksum = v2.payloadChecksum;
        h.headerChecksum = v2.headerChecksum;
    } else if (version == kVersion) {
        cursor.read(raw + sizeof(WireHeaderV2),
                    sizeof(Header) - sizeof(WireHeaderV2));
        std::memcpy(&h, raw, sizeof(Header));
        if (graph::fnv1a64(&h, kHeaderHashedBytes) != h.headerChecksum)
            fail(SnapshotErrorKind::ChecksumMismatch,
                 "snapshot header fails its checksum");
    } else {
        fail(SnapshotErrorKind::BadVersion,
             "unsupported snapshot version " + std::to_string(version) +
                 " (this build reads 2 and " + std::to_string(kVersion) +
                 ")");
    }
    return h;
}

/** Structural validation of the decoded arrays (checksums passing only
 *  proves the bytes are what the writer wrote, not that the writer was
 *  sane). Everything here guards a later unchecked array index. */
void
validateArrays(const Header &h, const std::vector<EdgeIndex> &offsets,
               const std::vector<transform::VirtualNode> &vnodes)
{
    if (offsets.front() != 0 || offsets.back() != h.numEdges)
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot row offsets do not span the edge array");
    for (std::size_t v = 1; v < offsets.size(); ++v)
        if (offsets[v] < offsets[v - 1])
            fail(SnapshotErrorKind::Inconsistent,
                 "snapshot row offsets are not monotone");
    // Edge targets out of range are tolerated by Csr itself but would
    // index out of bounds in every engine; reject them here once.
    if (h.flags & kFlagVirtual) {
        if (h.virtualDegreeBound == 0)
            fail(SnapshotErrorKind::Inconsistent,
                 "snapshot virtual section with degree bound 0");
        for (const transform::VirtualNode &node : vnodes) {
            if (node.physicalId >= h.numNodes ||
                node.count > h.virtualDegreeBound)
                fail(SnapshotErrorKind::Inconsistent,
                     "snapshot virtual node entry out of range");
            if (node.count > 0) {
                // Guard the stride * (count - 1) product against
                // uint64 wraparound before trusting `last`: a hostile
                // entry with a huge stride must not wrap back inside
                // its segment and pass containment.
                constexpr EdgeIndex kMax =
                    std::numeric_limits<EdgeIndex>::max();
                if (node.count > 1 &&
                    node.stride > (kMax - node.start) / (node.count - 1))
                    fail(SnapshotErrorKind::Inconsistent,
                         "snapshot virtual node stride overflows its "
                         "slot range");
                const EdgeIndex last =
                    node.start + node.stride * (node.count - 1);
                if (node.start < offsets[node.physicalId] ||
                    last >= offsets[node.physicalId + 1])
                    fail(SnapshotErrorKind::Inconsistent,
                         "snapshot virtual node owns slots outside "
                         "its node's edge segment");
            }
        }
        // No two virtual nodes may claim the same edge slot (a stride-0
        // entry with count > 1 collides with itself). Containment above
        // bounds every mark below numEdges, so the map never overflows.
        std::vector<unsigned char> claimed;
        try {
            claimed.assign(h.numEdges, 0);
        } catch (const std::bad_alloc &) {
            fail(SnapshotErrorKind::Truncated,
                 "snapshot declares arrays larger than available "
                 "memory");
        }
        for (const transform::VirtualNode &node : vnodes) {
            for (std::uint32_t k = 0; k < node.count; ++k) {
                const EdgeIndex slot = node.start + node.stride * k;
                if (claimed[slot])
                    fail(SnapshotErrorKind::Inconsistent,
                         "snapshot virtual nodes claim overlapping "
                         "edge slots");
                claimed[slot] = 1;
            }
        }
    }
}

void
validateTargets(const Header &h, const std::vector<NodeId> &cols)
{
    for (NodeId target : cols)
        if (target >= h.numNodes)
            fail(SnapshotErrorKind::Inconsistent,
                 "snapshot edge target out of range");
}

Header
makeHeader(const Snapshot &snapshot)
{
    Header h{};
    std::memcpy(h.magic, kMagic, sizeof(kMagic));
    h.version = kVersion;
    h.flags = snapshot.hasVirtual ? kFlagVirtual : 0;
    h.numNodes = snapshot.graph.numNodes();
    h.numEdges = snapshot.graph.numEdges();
    h.numVirtualNodes =
        snapshot.hasVirtual ? snapshot.virtualNodes.size() : 0;
    h.virtualDegreeBound = snapshot.virtualDegreeBound;
    h.virtualLayout =
        snapshot.virtualLayout == transform::EdgeLayout::Coalesced ? 1
                                                                   : 0;
    h.epoch = snapshot.epoch;
    h.payloadOffset = sizeof(Header);
    h.payloadBytes = expectedPayloadBytes(h);
    return h;
}

/** In-memory cursor over a mapped or loaded snapshot image. */
struct MemCursor
{
    const unsigned char *data;
    std::size_t size;
    std::size_t pos = 0;

    void
    read(void *dst, std::size_t bytes)
    {
        // An empty section reads into an empty vector, whose data()
        // may be null: memcpy must not see it.
        if (bytes == 0)
            return;
        if (bytes > size - pos)
            fail(SnapshotErrorKind::Truncated,
                 "snapshot ends mid-payload (file truncated?)");
        std::memcpy(dst, data + pos, bytes);
        pos += bytes;
    }
};

/** Stream cursor for the fread-style path. */
struct StreamCursor
{
    std::istream &in;

    void
    read(void *dst, std::size_t bytes)
    {
        in.read(reinterpret_cast<char *>(dst),
                static_cast<std::streamsize>(bytes));
        if (static_cast<std::size_t>(in.gcount()) != bytes)
            fail(SnapshotErrorKind::Truncated,
                 "snapshot ends mid-payload (file truncated?)");
    }
};

/** Read one payload array, chaining @p checksum across its bytes. */
template <typename Cursor, typename T>
void
readSection(Cursor &cursor, std::vector<T> &vec, std::uint64_t count,
            std::uint64_t &checksum)
{
    try {
        vec.resize(count);
    } catch (const std::bad_alloc &) {
        fail(SnapshotErrorKind::Truncated,
             "snapshot declares arrays larger than available memory");
    }
    cursor.read(vec.data(), count * sizeof(T));
    checksum = graph::fnv1a64(vec.data(), count * sizeof(T), checksum);
}

/** Decode header + payload through any cursor. The payload checksum is
 *  chained section by section, which equals the writer's single pass
 *  over the concatenated bytes. */
template <typename Cursor>
Snapshot
decode(Cursor &cursor)
{
    const Header h = readHeader(cursor);
    validateHeader(h);

    std::uint64_t checksum = graph::kFnv1aBasis;
    std::vector<EdgeIndex> offsets;
    std::vector<NodeId> cols;
    std::vector<Weight> weights;
    readSection(cursor, offsets, h.numNodes + 1, checksum);
    readSection(cursor, cols, h.numEdges, checksum);
    readSection(cursor, weights, h.numEdges, checksum);

    Snapshot snapshot;
    if (h.flags & kFlagVirtual) {
        std::vector<NodeId> phys;
        std::vector<EdgeIndex> starts;
        std::vector<EdgeIndex> strides;
        std::vector<std::uint32_t> counts;
        readSection(cursor, phys, h.numVirtualNodes, checksum);
        readSection(cursor, starts, h.numVirtualNodes, checksum);
        readSection(cursor, strides, h.numVirtualNodes, checksum);
        readSection(cursor, counts, h.numVirtualNodes, checksum);
        snapshot.virtualNodes.resize(h.numVirtualNodes);
        for (std::uint64_t i = 0; i < h.numVirtualNodes; ++i) {
            snapshot.virtualNodes[i] = transform::VirtualNode{
                phys[i], starts[i], strides[i], counts[i]};
        }
    }

    if (checksum != h.payloadChecksum)
        fail(SnapshotErrorKind::ChecksumMismatch,
             "snapshot payload fails its checksum (corrupted file?)");

    validateArrays(h, offsets, snapshot.virtualNodes);
    validateTargets(h, cols);

    snapshot.graph = graph::Csr(std::move(offsets), std::move(cols),
                                std::move(weights));
    snapshot.hasVirtual = (h.flags & kFlagVirtual) != 0;
    snapshot.virtualDegreeBound = h.virtualDegreeBound;
    snapshot.virtualLayout = h.virtualLayout == 1
                                 ? transform::EdgeLayout::Coalesced
                                 : transform::EdgeLayout::Consecutive;
    snapshot.epoch = h.epoch;
    return snapshot;
}

/** Pre-check a file's size against its header so a truncated file is
 *  reported as Truncated before any large allocation happens. */
void
checkFileSize(const std::filesystem::path &path, std::uint64_t actual,
              const Header &h)
{
    const std::uint64_t declared = h.payloadOffset + h.payloadBytes;
    if (actual < declared)
        fail(SnapshotErrorKind::Truncated,
             "snapshot " + path.string() + " is truncated: " +
                 std::to_string(actual) + " bytes of a declared " +
                 std::to_string(declared));
    if (actual > declared)
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot " + path.string() + " has trailing bytes");
}

#if TIGR_HAVE_MMAP
Snapshot
loadSnapshotMmap(const std::filesystem::path &path)
{
    // Injected mapping failure; same typed error a real one raises.
    if (fault::armed() && fault::fired(fault::Site::SnapshotMmap))
        fail(SnapshotErrorKind::Io,
             "injected fault at snapshot.mmap: " + path.string());
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(SnapshotErrorKind::Io,
             "cannot open " + path.string() + " for mapping");
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        fail(SnapshotErrorKind::Io, "cannot stat " + path.string());
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        fail(SnapshotErrorKind::Truncated,
             "snapshot " + path.string() + " is empty");
    }
    void *mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (mapped == MAP_FAILED)
        fail(SnapshotErrorKind::Io, "cannot mmap " + path.string());
    struct Unmapper
    {
        void *addr;
        std::size_t len;
        ~Unmapper() { ::munmap(addr, len); }
    } unmapper{mapped, size};

    const auto *data = static_cast<const unsigned char *>(mapped);
    if (size >= sizeof(Header)) {
        // Any intact snapshot is at least 88 bytes (a v2 header is 80
        // and the smallest payload is one u64), so the pre-check can
        // always parse the header out of the first 88.
        MemCursor cursor{data, size};
        const Header h = readHeader(cursor);
        validateHeader(h);
        checkFileSize(path, size, h);
    }
    return parseSnapshot(data, size);
}
#endif

} // namespace

std::string_view
snapshotErrorKindName(SnapshotErrorKind kind)
{
    switch (kind) {
      case SnapshotErrorKind::Io: return "io";
      case SnapshotErrorKind::BadMagic: return "bad-magic";
      case SnapshotErrorKind::BadVersion: return "bad-version";
      case SnapshotErrorKind::Truncated: return "truncated";
      case SnapshotErrorKind::ChecksumMismatch: return "bad-checksum";
      case SnapshotErrorKind::Inconsistent: return "inconsistent";
    }
    return "unknown";
}

void
saveSnapshot(const Snapshot &snapshot, std::ostream &out)
{
    if (snapshot.hasVirtual) {
        // Reuse fromArrays' validation so a bad array is rejected at
        // write time, not by every future load.
        transform::VirtualGraph::fromArrays(
            snapshot.graph, snapshot.virtualDegreeBound,
            snapshot.virtualLayout, snapshot.virtualNodes);
    }

    Header h = makeHeader(snapshot);

    // De-interleave the virtual array into the on-disk SoA sections
    // (VirtualNode has padding; raw struct bytes would checksum
    // indeterminate padding).
    const std::size_t nv = snapshot.hasVirtual
                               ? snapshot.virtualNodes.size()
                               : 0;
    std::vector<NodeId> phys(nv);
    std::vector<EdgeIndex> starts(nv);
    std::vector<EdgeIndex> strides(nv);
    std::vector<std::uint32_t> counts(nv);
    for (std::size_t i = 0; i < nv; ++i) {
        const transform::VirtualNode &node = snapshot.virtualNodes[i];
        phys[i] = node.physicalId;
        starts[i] = node.start;
        strides[i] = node.stride;
        counts[i] = node.count;
    }

    const graph::Csr &g = snapshot.graph;
    auto hash = [](std::uint64_t seed, const auto &vec) {
        using T = typename std::decay_t<decltype(vec)>::value_type;
        return graph::fnv1a64(vec.data(), vec.size() * sizeof(T), seed);
    };
    std::uint64_t checksum = graph::kFnv1aBasis;
    checksum = hash(checksum, g.rowOffsets());
    checksum = hash(checksum, g.colIndices());
    checksum = hash(checksum, g.weights());
    if (snapshot.hasVirtual) {
        checksum = hash(checksum, phys);
        checksum = hash(checksum, starts);
        checksum = hash(checksum, strides);
        checksum = hash(checksum, counts);
    }
    h.payloadChecksum = checksum;
    h.headerChecksum = graph::fnv1a64(&h, kHeaderHashedBytes);

    auto write = [&](const auto &vec) {
        using T = typename std::decay_t<decltype(vec)>::value_type;
        out.write(reinterpret_cast<const char *>(vec.data()),
                  static_cast<std::streamsize>(vec.size() * sizeof(T)));
    };
    out.write(reinterpret_cast<const char *>(&h), sizeof(Header));
    write(g.rowOffsets());
    write(g.colIndices());
    write(g.weights());
    if (snapshot.hasVirtual) {
        write(phys);
        write(starts);
        write(strides);
        write(counts);
    }
    if (!out)
        fail(SnapshotErrorKind::Io, "snapshot write failed");
}

void
saveSnapshotFile(const Snapshot &snapshot,
                 const std::filesystem::path &path)
{
    // Crash-consistent write: temp file + fsync + atomic rename. A
    // crash leaves either the old snapshot intact or a "*.tgs.tmp"
    // leftover that auditSnapshotDirectory() quarantines — a partial
    // file never appears under the real name. All file I/O flows
    // through the io:: shim, so the crash-torture harness can cut the
    // write at any byte or kill the fsync/rename.
    const std::filesystem::path tmp =
        path.parent_path() / (path.filename().string() + ".tmp");
    try {
        std::ostringstream buffer(std::ios::binary);
        saveSnapshot(snapshot, buffer);
        const std::string bytes = std::move(buffer).str();
        io::FileHandle file = io::FileHandle::createTruncated(tmp);
        file.writeAll(bytes.data(), bytes.size());
        file.sync();
        file.close();
        io::renameFile(tmp, path); // atomic on POSIX
        const std::filesystem::path parent = path.parent_path();
        io::syncPath(parent.empty() ? "." : parent,
                     /*directory=*/true);
    } catch (const fault::InjectedCrash &) {
        // Simulated process death: no cleanup runs — the leftover
        // "*.tgs.tmp" is exactly what recovery must cope with.
        throw;
    } catch (const io::IoError &error) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec); // best-effort cleanup
        fail(SnapshotErrorKind::Io, error.what());
    } catch (...) {
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        throw;
    }
}

void
saveSnapshotFile(const graph::Csr &graph,
                 const std::filesystem::path &path)
{
    Snapshot snapshot;
    snapshot.graph = graph;
    saveSnapshotFile(snapshot, path);
}

void
saveSnapshotFile(const transform::VirtualGraph &vg,
                 const std::filesystem::path &path)
{
    Snapshot snapshot;
    snapshot.graph = vg.physical();
    snapshot.hasVirtual = true;
    snapshot.virtualDegreeBound = vg.degreeBound();
    snapshot.virtualLayout = vg.layout();
    snapshot.virtualNodes.assign(vg.virtualNodes().begin(),
                                 vg.virtualNodes().end());
    saveSnapshotFile(snapshot, path);
}

Snapshot
loadSnapshot(std::istream &in)
{
    // Injected stream-read failure; reported through the typed error
    // like any real I/O fault would be.
    if (fault::armed() && fault::fired(fault::Site::SnapshotRead))
        fail(SnapshotErrorKind::Io, "injected fault at snapshot.read");
    StreamCursor cursor{in};
    return decode(cursor);
}

Snapshot
parseSnapshot(const void *data, std::size_t size)
{
    MemCursor cursor{static_cast<const unsigned char *>(data), size};
    Snapshot snapshot = decode(cursor);
    // An in-memory image knows its exact extent: bytes past the
    // declared payload mean the writer and the header disagree.
    if (cursor.pos != size)
        fail(SnapshotErrorKind::Inconsistent,
             "snapshot has trailing bytes");
    return snapshot;
}

SnapshotAuditReport
auditSnapshotDirectory(const std::filesystem::path &dir)
{
    std::error_code ec;
    std::vector<std::filesystem::path> entries;
    for (std::filesystem::directory_iterator
             it(dir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && !ec)
            entries.push_back(it->path());
        ec.clear();
    }
    if (ec)
        fail(SnapshotErrorKind::Io,
             "cannot scan snapshot directory " + dir.string() + ": " +
                 ec.message());
    std::sort(entries.begin(), entries.end());

    auto quarantine = [](const std::filesystem::path &victim) {
        const std::filesystem::path target =
            victim.parent_path() /
            (victim.filename().string() + ".quarantined");
        std::error_code rename_ec;
        std::filesystem::rename(victim, target, rename_ec);
        // Unrenamable files are still reported, under the old name.
        return rename_ec ? victim : target;
    };

    SnapshotAuditReport report;
    std::set<std::string> intactStems;
    std::vector<std::filesystem::path> sidecars;
    for (const std::filesystem::path &entry : entries) {
        const std::string name = entry.filename().string();
        if (name.ends_with(std::string(kSnapshotExtension) + ".tmp") ||
            name.ends_with(std::string(kJournalExtension) + ".tmp")) {
            // Leftover of an interrupted saveSnapshotFile() or journal
            // rotation: by construction never complete, always
            // quarantined.
            report.quarantined.push_back(quarantine(entry));
            continue;
        }
        if (entry.extension() == kJournalExtension ||
            entry.extension() == kMutationLogExtension) {
            sidecars.push_back(entry); // judged after snapshots
            continue;
        }
        if (entry.extension() != kSnapshotExtension)
            continue;
        try {
            (void)loadSnapshotFile(entry);
            report.intact.push_back(entry);
            intactStems.insert(entry.stem().string());
        } catch (const SnapshotError &) {
            report.quarantined.push_back(quarantine(entry));
        }
    }

    // Sidecars: an orphan (no intact snapshot under the stem) has
    // nothing to replay onto; a corrupt one cannot be trusted. A
    // journal with a torn record tail is NOT corrupt — only a bad
    // header is — recovery truncates and preserves tails.
    for (const std::filesystem::path &entry : sidecars) {
        if (!intactStems.count(entry.stem().string())) {
            report.quarantined.push_back(quarantine(entry));
            continue;
        }
        if (entry.extension() == kJournalExtension) {
            bool trusted = false;
            try {
                trusted = scanJournal(entry).headerIntact;
            } catch (const JournalError &) {
            }
            if (trusted)
                report.journals.push_back(entry);
            else
                report.quarantined.push_back(quarantine(entry));
            continue;
        }
        bool parses = false;
        try {
            std::ifstream in(entry);
            if (in) {
                (void)dynamic::MutationLog::load(in);
                parses = true;
            }
        } catch (const std::exception &) {
        }
        if (parses)
            report.mutationLogs.push_back(entry);
        else
            report.quarantined.push_back(quarantine(entry));
    }
    return report;
}

Snapshot
loadSnapshotFile(const std::filesystem::path &path,
                 SnapshotLoadMode mode)
{
#if TIGR_HAVE_MMAP
    if (mode == SnapshotLoadMode::Mmap || mode == SnapshotLoadMode::Auto)
        return loadSnapshotMmap(path);
#else
    if (mode == SnapshotLoadMode::Mmap)
        fail(SnapshotErrorKind::Io,
             "mmap snapshot loading is unavailable on this platform");
#endif
    (void)mode;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fail(SnapshotErrorKind::Io, "cannot open " + path.string());
    // Size pre-check: truncation diagnosed up front, and a hostile
    // header cannot demand allocations the file cannot back.
    std::error_code ec;
    const std::uint64_t actual =
        std::filesystem::file_size(path, ec);
    if (!ec && actual >= sizeof(Header)) {
        // See loadSnapshotMmap: 88 bytes always cover the header of
        // any intact snapshot, v2 or v3.
        unsigned char raw[sizeof(Header)];
        in.read(reinterpret_cast<char *>(raw), sizeof(Header));
        MemCursor cursor{raw, sizeof(Header)};
        const Header h = readHeader(cursor);
        validateHeader(h);
        checkFileSize(path, actual, h);
        in.seekg(0);
    }
    return loadSnapshot(in);
}

} // namespace tigr::service
