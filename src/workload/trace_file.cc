#include "trace_file.hh"

#include <cstring>
#include <limits>

#include "common/contracts.hh"
#include "common/fault.hh"
#include "common/logging.hh"

namespace mixtlb::workload
{

namespace
{

constexpr char Magic[4] = {'M', 'X', 'T', 'L'};
constexpr std::uint32_t Version = 1;

struct Header
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t count;
};

#pragma pack(push, 1)
struct Record
{
    std::uint64_t vaddr;
    std::uint8_t type;
};
#pragma pack(pop)
static_assert(sizeof(Record) == 9, "trace record must pack to 9 bytes");

} // anonymous namespace

TraceWriter::TraceWriter(const std::string &path)
    : file_(std::fopen(path.c_str(), "wb"))
{
    fatal_if(!file_, "cannot open trace file '%s' for writing",
             path.c_str());
    Header header{};
    std::memcpy(header.magic, Magic, 4);
    header.version = Version;
    header.count = 0; // patched in close()
    fatal_if(std::fwrite(&header, sizeof(header), 1, file_) != 1,
             "trace header write failed");
}

void
TraceWriter::write(const MemRef &ref)
{
    panic_if(closed_, "write to a closed trace");
    Record record{ref.vaddr, static_cast<std::uint8_t>(ref.type)};
    fatal_if(std::fwrite(&record, sizeof(record), 1, file_) != 1,
             "trace record write failed");
    count_++;
}

void
TraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    Header header{};
    std::memcpy(header.magic, Magic, 4);
    header.version = Version;
    header.count = count_;
    std::fseek(file_, 0, SEEK_SET);
    fatal_if(std::fwrite(&header, sizeof(header), 1, file_) != 1,
             "trace header patch failed");
    std::fclose(file_);
    file_ = nullptr;
}

TraceWriter::~TraceWriter()
{
    close();
}

TraceFileGen::TraceFileGen(const std::string &path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path)
{
    // Validation failures raise recoverable SimErrors: a corrupt trace
    // fails the point that replays it, not the whole sweep. A throwing
    // constructor skips the destructor, so close file_ by hand first.
    if (!file_)
        MIX_RAISE("io", "cannot open trace file '%s'", path.c_str());

    Header header{};
    bool header_ok =
        std::fread(&header, sizeof(header), 1, file_) == 1;
    const char *problem = nullptr;
    if (!header_ok)
        problem = "truncated header";
    else if (std::memcmp(header.magic, Magic, 4) != 0)
        problem = "bad magic (not a mixtlb trace)";
    else if (header.version != Version)
        problem = "unsupported version";
    else if (header.count == 0)
        problem = "empty trace (zero records)";
    else if (header.count >
             (std::numeric_limits<std::uint64_t>::max() - sizeof(Header))
                 / sizeof(Record))
        problem = "record count too large for any file size";

    if (!problem) {
        // The payload must hold exactly header.count records; a short
        // file means the writer was killed mid-record or the file was
        // truncated in transit.
        std::fseek(file_, 0, SEEK_END);
        long size = std::ftell(file_);
        std::fseek(file_, sizeof(Header), SEEK_SET);
        auto expected = static_cast<std::uint64_t>(sizeof(Header))
                        + header.count * sizeof(Record);
        if (size < 0 ||
            static_cast<std::uint64_t>(size) != expected) {
            problem = "size does not match record count (truncated?)";
        }
    }

    if (problem) {
        std::fclose(file_);
        file_ = nullptr;
        MIX_RAISE("trace-corrupt", "trace '%s': %s", path.c_str(),
                  problem);
    }
    count_ = header.count;
}

TraceFileGen::~TraceFileGen()
{
    if (file_)
        std::fclose(file_);
}

void
TraceFileGen::rewindToData()
{
    std::fseek(file_, sizeof(Header), SEEK_SET);
    cursor_ = 0;
}

MemRef
TraceFileGen::next()
{
    if (cursor_ >= count_)
        rewindToData();
    Record record{};
    if (std::fread(&record, sizeof(record), 1, file_) != 1) {
        MIX_RAISE("trace-corrupt",
                  "trace '%s': record %llu read failed", path_.c_str(),
                  (unsigned long long)cursor_);
    }
    cursor_++;
    // The trace-corruption fault site models a record damaged on disk
    // or in transit; it must trip the same validation a genuinely
    // corrupt file would.
    if (fault::fire(fault::Site::TraceCorrupt))
        record.type = 0xff;
    if (record.type > static_cast<std::uint8_t>(AccessType::Write)) {
        MIX_RAISE("trace-corrupt",
                  "trace '%s': record %llu has invalid access type %u",
                  path_.c_str(), (unsigned long long)(cursor_ - 1),
                  record.type);
    }
    if (record.vaddr >= (1ULL << 48)) {
        MIX_RAISE("trace-corrupt",
                  "trace '%s': record %llu address 0x%llx exceeds the "
                  "48-bit virtual address space",
                  path_.c_str(), (unsigned long long)(cursor_ - 1),
                  (unsigned long long)record.vaddr);
    }
    MemRef ref;
    ref.vaddr = record.vaddr;
    ref.type = static_cast<AccessType>(record.type);
    return ref;
}

std::uint64_t
recordTrace(TraceGenerator &gen, std::uint64_t refs,
            const std::string &path)
{
    TraceWriter writer(path);
    for (std::uint64_t i = 0; i < refs; i++)
        writer.write(gen.next());
    writer.close();
    return refs;
}

} // namespace mixtlb::workload
