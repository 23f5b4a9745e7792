#ifndef BIGDANSING_DATA_STORAGE_H_
#define BIGDANSING_DATA_STORAGE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"

namespace bigdansing {

/// One replica of a stored dataset, logically partitioned on an attribute:
/// every row lives in the partition selected by the hash of its value of
/// that attribute, so all rows sharing a blocking key are co-located.
struct PartitionedReplica {
  std::string attribute;
  size_t column = 0;
  std::vector<std::vector<Row>> partitions;
};

/// The data storage manager of Appendix F. Three optimizations:
///
/// 1. **Partitioning** — datasets are split by *content* (attribute value),
///    not by size, so the Block operator can be pushed down to storage:
///    units sharing a blocking key are already co-located and detection
///    needs no shuffle (see DetectRequest::storage).
/// 2. **Replication** — different cleansing tasks block on different keys,
///    so a dataset may be stored several times, each replica partitioned
///    on a different attribute ("heterogeneous replication").
/// 3. **Layout** — tables serialize to a binary column-oriented format
///    (SaveBinary/LoadBinary), avoiding string parsing on reload and
///    letting Scope read only the projected columns.
///
/// The manager also records each dataset's "upload plan" (which replicas
/// exist, how each is partitioned) — the metadata BigDansing consults at
/// query time to pick an access path.
class StorageManager {
 public:
  /// Stores `table` under `name` with a primary replica partitioned on
  /// `partition_attribute` into `num_partitions` parts. Fails if `name`
  /// already exists or the attribute is unknown.
  Status Store(const std::string& name, const Table& table,
               const std::string& partition_attribute, size_t num_partitions);

  /// Adds another replica of `name`, partitioned on a different attribute.
  Status AddReplica(const std::string& name,
                    const std::string& partition_attribute,
                    size_t num_partitions);

  /// The replica of `name` partitioned on `attribute`, or NotFound.
  Result<const PartitionedReplica*> FindReplica(
      const std::string& name, const std::string& attribute) const;

  /// Reassembles the full table from the primary replica.
  Result<Table> Load(const std::string& name) const;

  /// The schema of dataset `name`.
  Result<Schema> GetSchema(const std::string& name) const;

  /// The attributes on which replicas of `name` exist (the upload plan).
  std::vector<std::string> ReplicaAttributes(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return datasets_.count(name) > 0;
  }

 private:
  struct StoredDataset {
    Schema schema;
    std::vector<PartitionedReplica> replicas;
  };
  Result<PartitionedReplica> BuildReplica(const Schema& schema,
                                          const std::vector<Row>& rows,
                                          const std::string& attribute,
                                          size_t num_partitions) const;

  std::map<std::string, StoredDataset> datasets_;
};

/// Serializes one row (id + values) into the binary layout; the row-level
/// unit the MapReduce execution layer ships between phases.
std::string SerializeRow(const Row& row);

/// Parses a buffer produced by SerializeRow.
Result<Row> DeserializeRow(const std::string& buffer);

/// Serializes `table` into the binary column-oriented layout. The format is
/// self-describing: magic, schema, row count, then per column a type tag
/// per value followed by the packed values.
std::string SerializeTableBinary(const Table& table);

/// Parses a buffer produced by SerializeTableBinary.
Result<Table> DeserializeTableBinary(const std::string& buffer);

/// Writes/reads the binary layout to/from a file.
Status SaveBinary(const Table& table, const std::string& path);
Result<Table> LoadBinary(const std::string& path);

}  // namespace bigdansing

#endif  // BIGDANSING_DATA_STORAGE_H_
