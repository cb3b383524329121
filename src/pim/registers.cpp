#include "pim/registers.h"

#include <cstring>

#include "common/logging.h"

namespace pimsim {

LaneVector
burstToLanes(const Burst &burst)
{
    LaneVector lanes;
    for (std::size_t i = 0; i < kSimdLanes; ++i) {
        Fp16Bits bits = static_cast<Fp16Bits>(
            burst[2 * i] | (static_cast<unsigned>(burst[2 * i + 1]) << 8));
        lanes[i] = Fp16::fromBits(bits);
    }
    return lanes;
}

Burst
lanesToBurst(const LaneVector &lanes)
{
    Burst burst{};
    for (std::size_t i = 0; i < kSimdLanes; ++i) {
        burst[2 * i] = static_cast<std::uint8_t>(lanes[i].bits() & 0xff);
        burst[2 * i + 1] = static_cast<std::uint8_t>(lanes[i].bits() >> 8);
    }
    return burst;
}

LaneVector
broadcast(Fp16 value)
{
    LaneVector lanes;
    lanes.fill(value);
    return lanes;
}

PimRegisterFile::PimRegisterFile(const PimConfig &config)
    : grfPerHalf_(config.grfPerHalf), srfPerFile_(config.srfPerFile),
      crf_(config.crfEntries, 0), grfA_(config.grfPerHalf),
      grfB_(config.grfPerHalf), srfM_(config.srfPerFile),
      srfA_(config.srfPerFile), crfPoison_(config.crfEntries, 0),
      grfPoisonA_(config.grfPerHalf, 0), grfPoisonB_(config.grfPerHalf, 0),
      srfPoisonM_(config.srfPerFile, 0), srfPoisonA_(config.srfPerFile, 0)
{
}

void
PimRegisterFile::reset()
{
    std::fill(crf_.begin(), crf_.end(), 0);
    ++crfVersion_;
    for (auto &r : grfA_)
        r.fill(Fp16());
    for (auto &r : grfB_)
        r.fill(Fp16());
    std::fill(srfM_.begin(), srfM_.end(), Fp16());
    std::fill(srfA_.begin(), srfA_.end(), Fp16());
    std::fill(crfPoison_.begin(), crfPoison_.end(), 0);
    std::fill(grfPoisonA_.begin(), grfPoisonA_.end(), 0);
    std::fill(grfPoisonB_.begin(), grfPoisonB_.end(), 0);
    std::fill(srfPoisonM_.begin(), srfPoisonM_.end(), 0);
    std::fill(srfPoisonA_.begin(), srfPoisonA_.end(), 0);
}

std::uint32_t
PimRegisterFile::crf(unsigned index) const
{
    PIMSIM_ASSERT(index < crf_.size(), "CRF index ", index);
    return crf_[index];
}

void
PimRegisterFile::setCrf(unsigned index, std::uint32_t word)
{
    PIMSIM_ASSERT(index < crf_.size(), "CRF index ", index);
    crf_[index] = word;
    ++crfVersion_;
    crfPoison_[index] = 0; // an overwrite masks an unconsumed plant
}

const LaneVector &
PimRegisterFile::grf(unsigned half, unsigned index) const
{
    const auto &file = half == 0 ? grfA_ : grfB_;
    PIMSIM_ASSERT(index < file.size(), "GRF index ", index);
    return file[index];
}

void
PimRegisterFile::setGrf(unsigned half, unsigned index,
                        const LaneVector &value)
{
    auto &file = half == 0 ? grfA_ : grfB_;
    PIMSIM_ASSERT(index < file.size(), "GRF index ", index);
    file[index] = value;
    (half == 0 ? grfPoisonA_ : grfPoisonB_)[index] = 0;
}

Fp16
PimRegisterFile::srf(unsigned file, unsigned index) const
{
    const auto &f = file == 0 ? srfM_ : srfA_;
    PIMSIM_ASSERT(index < f.size(), "SRF index ", index);
    return f[index];
}

void
PimRegisterFile::setSrf(unsigned file, unsigned index, Fp16 value)
{
    auto &f = file == 0 ? srfM_ : srfA_;
    PIMSIM_ASSERT(index < f.size(), "SRF index ", index);
    f[index] = value;
    (file == 0 ? srfPoisonM_ : srfPoisonA_)[index] = 0;
}

Burst
PimRegisterFile::srfFileAsBurst(unsigned file) const
{
    const auto &f = file == 0 ? srfM_ : srfA_;
    Burst burst{};
    for (std::size_t i = 0; i < f.size() && 2 * i + 1 < burst.size(); ++i) {
        burst[2 * i] = static_cast<std::uint8_t>(f[i].bits() & 0xff);
        burst[2 * i + 1] = static_cast<std::uint8_t>(f[i].bits() >> 8);
    }
    return burst;
}

void
PimRegisterFile::loadSrfFile(unsigned file, const Burst &data)
{
    auto &f = file == 0 ? srfM_ : srfA_;
    auto &poison = file == 0 ? srfPoisonM_ : srfPoisonA_;
    for (std::size_t i = 0; i < f.size() && 2 * i + 1 < data.size(); ++i) {
        f[i] = Fp16::fromBits(static_cast<Fp16Bits>(
            data[2 * i] | (static_cast<unsigned>(data[2 * i + 1]) << 8)));
        poison[i] = 0;
    }
}

void
PimRegisterFile::flipCrfBit(unsigned index, unsigned bit)
{
    PIMSIM_ASSERT(index < crf_.size() && bit < 32, "CRF flip at ", index,
                  ":", bit);
    crf_[index] ^= 1u << bit;
    ++crfVersion_;
    crfPoison_[index] = 1;
}

void
PimRegisterFile::flipGrfBit(unsigned half, unsigned index, unsigned bit)
{
    auto &file = half == 0 ? grfA_ : grfB_;
    PIMSIM_ASSERT(index < file.size() && bit < kSimdLanes * 16,
                  "GRF flip at ", index, ":", bit);
    Fp16 &lane = file[index][bit / 16];
    lane = Fp16::fromBits(
        static_cast<Fp16Bits>(lane.bits() ^ (1u << (bit % 16))));
    (half == 0 ? grfPoisonA_ : grfPoisonB_)[index] = 1;
}

void
PimRegisterFile::flipSrfBit(unsigned file, unsigned index, unsigned bit)
{
    auto &f = file == 0 ? srfM_ : srfA_;
    PIMSIM_ASSERT(index < f.size() && bit < 16, "SRF flip at ", index, ":",
                  bit);
    f[index] = Fp16::fromBits(
        static_cast<Fp16Bits>(f[index].bits() ^ (1u << bit)));
    (file == 0 ? srfPoisonM_ : srfPoisonA_)[index] = 1;
}

bool
PimRegisterFile::grfPoisoned(unsigned half, unsigned index) const
{
    const auto &poison = half == 0 ? grfPoisonA_ : grfPoisonB_;
    PIMSIM_ASSERT(index < poison.size(), "GRF index ", index);
    return poison[index] != 0;
}

bool
PimRegisterFile::srfPoisoned(unsigned file, unsigned index) const
{
    const auto &poison = file == 0 ? srfPoisonM_ : srfPoisonA_;
    PIMSIM_ASSERT(index < poison.size(), "SRF index ", index);
    return poison[index] != 0;
}

bool
PimRegisterFile::crfPoisoned(unsigned index) const
{
    PIMSIM_ASSERT(index < crfPoison_.size(), "CRF index ", index);
    return crfPoison_[index] != 0;
}

void
PimRegisterFile::consumeGrfPoison(unsigned half, unsigned index)
{
    (half == 0 ? grfPoisonA_ : grfPoisonB_)[index] = 0;
}

void
PimRegisterFile::consumeSrfPoison(unsigned file, unsigned index)
{
    (file == 0 ? srfPoisonM_ : srfPoisonA_)[index] = 0;
}

void
PimRegisterFile::consumeCrfPoison(unsigned index)
{
    crfPoison_[index] = 0;
}

} // namespace pimsim
