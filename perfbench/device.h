// Benchmark-side storage devices: a counting/timing StorageDevice
// decorator and helpers that fingerprint, capture and restore the durable
// image a restart recovers from.
#ifndef PERFBENCH_DEVICE_H_
#define PERFBENCH_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "device/storage_device.h"

namespace perfbench {

using pacman::Status;
using pacman::device::IoResult;
using pacman::device::StorageDevice;

struct DeviceCounts {
  uint64_t appends = 0;  // AppendFile calls.
  uint64_t writes = 0;   // WriteFile calls.
  uint64_t fsyncs = 0;   // SyncBarrier calls.
  uint64_t bytes_written = 0;
  uint64_t write_ns = 0;  // Wall time inside write/append/sync/remove.
  uint64_t reads = 0;
  uint64_t bytes_read = 0;
  uint64_t read_ns = 0;

  DeviceCounts operator-(const DeviceCounts& o) const;
};

class DeviceCounters {
 public:
  DeviceCounts Snapshot() const;
  void AddWrite(std::atomic<uint64_t>* op, uint64_t bytes, int64_t ns);
  void AddRead(uint64_t bytes, int64_t ns);

  std::atomic<uint64_t> appends{0}, writes{0}, fsyncs{0}, removes{0};

 private:
  std::atomic<uint64_t> bytes_written_{0}, write_ns_{0};
  std::atomic<uint64_t> reads_{0}, bytes_read_{0}, read_ns_{0};
};

// Forwards every operation to a device the benchmark owns, so the durable
// image outlives one Database and a fresh Database can reopen it. With
// `counters` set (the traced run) it also counts and times each operation
// and records a device.* span for it; with null it only forwards.
class BenchDevice final : public StorageDevice {
 public:
  BenchDevice(StorageDevice* inner, DeviceCounters* counters)
      : inner_(inner), counters_(counters) {}

  IoResult WriteFile(const std::string& name,
                     std::vector<uint8_t> bytes) override;
  IoResult AppendFile(const std::string& name,
                      const std::vector<uint8_t>& bytes) override;
  Status ReadFile(const std::string& name,
                  std::vector<uint8_t>* out) const override;
  Status ReadFileShared(
      const std::string& name,
      std::shared_ptr<const std::vector<uint8_t>>* out) const override;
  bool Exists(const std::string& name) const override {
    return inner_->Exists(name);
  }
  std::vector<std::string> ListFiles(
      const std::string& prefix) const override {
    return inner_->ListFiles(prefix);
  }
  void RemoveAll() override { inner_->RemoveAll(); }
  IoResult RemoveFile(const std::string& name) override;
  size_t FileSize(const std::string& name) const override {
    return inner_->FileSize(name);
  }
  IoResult SyncBarrier() override;
  bool IsPersistent() const override { return inner_->IsPersistent(); }
  double WriteSeconds(size_t bytes) const override {
    return inner_->WriteSeconds(bytes);
  }
  double ReadSeconds(size_t bytes) const override {
    return inner_->ReadSeconds(bytes);
  }
  double FsyncSeconds() const override { return inner_->FsyncSeconds(); }

 private:
  StorageDevice* const inner_;
  DeviceCounters* const counters_;
};

// Every file of every device, by name.
using DeviceImage = std::vector<std::map<std::string, std::vector<uint8_t>>>;

// FNV-1a over each device's sorted file list, sizes and contents.
uint64_t FingerprintImage(const std::vector<StorageDevice*>& devices);
DeviceImage CaptureImage(const std::vector<StorageDevice*>& devices);
// Makes each device's content equal `image`: removes extra files and
// rewrites missing or changed ones.
Status RestoreImage(const std::vector<StorageDevice*>& devices,
                    const DeviceImage& image);

}  // namespace perfbench

#endif  // PERFBENCH_DEVICE_H_
