/**
 * @file
 * Writer and zero-copy loader for the .rnnb single-blob model format.
 *
 * The writer packs a composed ReinterpretedModel — codebooks, encoded
 * weights, bias vectors, and the product, activation and encoding
 * tables, with the canonical input shape — into one aligned file (see
 * format.hh). It stores nothing a Chip derives: the chip builds its
 * execution layout from the model at configure time. The loader
 * memory-maps that file
 * read-only and reconstructs the model with Array views pointing
 * straight into the mapping: no per-replica copies, and the page cache
 * shares the bytes across every Chip replica and worker process that
 * opens the same blob.
 *
 * Every offset, count and index in the file is untrusted: the loader
 * bounds-checks all of it through RAPIDNN_CHECK before any view is
 * created, so a truncated or corrupted blob fails with one clean
 * "fatal:" line instead of faulting.
 */

#ifndef RAPIDNN_BLOB_BLOB_HH
#define RAPIDNN_BLOB_BLOB_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "composer/reinterpreted_model.hh"

namespace rapidnn::blob {

/**
 * Serialize a model into blob bytes. The model must carry a canonical
 * input shape (ReinterpretedModel::setCanonicalInputShape), which the
 * blob records for Chip::configure. The blob holds the composed model
 * only: a blob-backed Chip derives its packed rows, conv gather plans
 * and workspace arena at configure time, so the read-only mapping is
 * untouched and stays shared across replicas at any batch width.
 */
std::vector<uint8_t> buildBlob(const composer::ReinterpretedModel &model);

/** buildBlob + atomic write to `path`: stages a temp file in the same
 *  directory and rename()s it over the target, so concurrent readers
 *  (including live mmaps of a previous blob at this path) only ever
 *  see a complete file; fatal on I/O failure. A mapped blob must not
 *  be modified in place while served. */
void writeBlobFile(const composer::ReinterpretedModel &model,
                   const std::string &path);

/**
 * A loaded model blob: the mapped (or owned) bytes plus the
 * ReinterpretedModel whose Arrays view them. The model is valid only
 * while this object lives — share it via shared_ptr across Chip
 * replicas and keep it alive for as long as any of them serves.
 */
class ModelBlob
{
  public:
    /**
     * Open and validate a blob file. Maps it read-only (MAP_SHARED, so
     * the page cache backs every process mapping the same file); falls
     * back to a plain read if mmap is unavailable. Fatal on any
     * validation failure.
     */
    static std::shared_ptr<const ModelBlob> open(const std::string &path);

    /**
     * Validate and adopt in-memory blob bytes (tests, corrupt-blob
     * fixtures, and the mmap fallback). Fatal on validation failure.
     */
    static std::shared_ptr<const ModelBlob> fromBytes(
        std::vector<uint8_t> bytes);

    ~ModelBlob();

    ModelBlob(const ModelBlob &) = delete;
    ModelBlob &operator=(const ModelBlob &) = delete;

    /** The reconstructed model; its Arrays view this blob's bytes. */
    const composer::ReinterpretedModel &model() const { return _model; }

    /** Total blob size in bytes. */
    size_t fileBytes() const { return _size; }

    /** True when backed by an mmap (false: owned heap bytes). */
    bool mapped() const { return _map != nullptr; }

  private:
    ModelBlob() = default;

    void parse(); //!< validate _data/_size and build _model

    void *_map = nullptr; //!< mmap base (when mapped)
    size_t _mapLen = 0;
    std::vector<uint8_t> _bytes; //!< owned storage (when not mapped)
    const uint8_t *_data = nullptr;
    size_t _size = 0;
    composer::ReinterpretedModel _model;
};

} // namespace rapidnn::blob

#endif // RAPIDNN_BLOB_BLOB_HH
