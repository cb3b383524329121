/**
 * @file
 * Standard DRAM commands.
 *
 * A central claim of the paper (Section III) is that PIM is driven purely
 * by these standard commands: there are no PIM-specific command encodings.
 * Mode transitions are ACT/PRE sequences to reserved addresses and a
 * column RD/WR in AB-PIM mode triggers one PIM instruction.
 */

#ifndef PIMSIM_DRAM_COMMAND_H
#define PIMSIM_DRAM_COMMAND_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "common/types.h"

namespace pimsim {

/** JEDEC command types understood by the device. */
enum class CommandType : std::uint8_t
{
    Act,  ///< activate (open) a row
    Pre,  ///< precharge (close) a bank's row
    PreA, ///< precharge all banks
    Rd,   ///< column read (one 32 B burst)
    Wr,   ///< column write (one 32 B burst)
    Ref,  ///< all-bank refresh
};

/** Number of CommandType values (for tables indexed by type). */
inline constexpr std::size_t kNumCommandTypes = 6;

const char *commandTypeName(CommandType type);

/** One DRAM command on a pseudo channel's command bus. */
struct Command
{
    CommandType type = CommandType::Rd;
    unsigned bankGroup = 0;
    unsigned bank = 0; ///< bank within the bank group
    unsigned row = 0;
    unsigned col = 0;
    /** Payload for WR commands (one burst). */
    std::array<std::uint8_t, kBurstBytes> data{};

    /** Flat bank index within the pCH. */
    unsigned flatBank(unsigned banks_per_group) const
    {
        return bankGroup * banks_per_group + bank;
    }

    static Command act(unsigned bg, unsigned ba, unsigned row)
    {
        Command c;
        c.type = CommandType::Act;
        c.bankGroup = bg;
        c.bank = ba;
        c.row = row;
        return c;
    }

    static Command pre(unsigned bg, unsigned ba)
    {
        Command c;
        c.type = CommandType::Pre;
        c.bankGroup = bg;
        c.bank = ba;
        return c;
    }

    static Command preAll()
    {
        Command c;
        c.type = CommandType::PreA;
        return c;
    }

    static Command rd(unsigned bg, unsigned ba, unsigned col)
    {
        Command c;
        c.type = CommandType::Rd;
        c.bankGroup = bg;
        c.bank = ba;
        c.col = col;
        return c;
    }

    static Command
    wr(unsigned bg, unsigned ba, unsigned col,
       const std::array<std::uint8_t, kBurstBytes> &data)
    {
        Command c;
        c.type = CommandType::Wr;
        c.bankGroup = bg;
        c.bank = ba;
        c.col = col;
        c.data = data;
        return c;
    }

    static Command refresh()
    {
        Command c;
        c.type = CommandType::Ref;
        return c;
    }
};

std::ostream &operator<<(std::ostream &os, const Command &cmd);

} // namespace pimsim

#endif // PIMSIM_DRAM_COMMAND_H
