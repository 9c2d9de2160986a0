#include "isa/asm.hh"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "isa/disasm.hh"

namespace imo::isa
{

namespace
{

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    const auto cut = s.find_first_of(";#");
    if (cut != std::string::npos)
        s.erase(cut);
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split an operand list on commas, trimming each piece. */
std::vector<std::string>
splitOperands(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : s) {
        if (c == ',') {
            out.push_back(cleanLine(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    const std::string last = cleanLine(cur);
    if (!last.empty())
        out.push_back(last);
    return out;
}

/** Split on whitespace. */
std::vector<std::string>
splitWords(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string w;
    while (is >> w)
        out.push_back(w);
    return out;
}

struct Parser
{
    std::map<std::string, Addr> dataSymbols;
    std::map<std::string, InstAddr> labels;
    Addr nextData = 0x10000;

    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg;
        return false;
    }

    bool
    parseReg(const std::string &tok, bool fp, std::uint8_t &out)
    {
        if (tok.size() < 2)
            return fail("bad register '" + tok + "'");
        const char kind = tok[0];
        if ((fp && kind != 'f') || (!fp && kind != 'r'))
            return fail("expected " + std::string(fp ? "f" : "r") +
                        "-register, got '" + tok + "'");
        char *end = nullptr;
        const long n = std::strtol(tok.c_str() + 1, &end, 10);
        if (*end != '\0' || n < 0 || n > 31)
            return fail("bad register '" + tok + "'");
        out = fp ? fpReg(static_cast<std::uint8_t>(n))
                 : intReg(static_cast<std::uint8_t>(n));
        return true;
    }

    bool
    parseImm(const std::string &tok, std::int64_t &out)
    {
        if (tok.empty())
            return fail("missing immediate");
        // Symbols: data first, then code labels.
        if (auto it = dataSymbols.find(tok); it != dataSymbols.end()) {
            out = static_cast<std::int64_t>(it->second);
            return true;
        }
        if (auto it = labels.find(tok); it != labels.end()) {
            out = static_cast<std::int64_t>(it->second);
            return true;
        }
        char *end = nullptr;
        out = std::strtoll(tok.c_str(), &end, 0);
        if (*end != '\0')
            return fail("bad immediate or unknown symbol '" + tok + "'");
        return true;
    }

    /** Control target: label name or `@N`. */
    bool
    parseTarget(const std::string &tok, std::int64_t &out)
    {
        if (!tok.empty() && tok[0] == '@') {
            char *end = nullptr;
            out = std::strtoll(tok.c_str() + 1, &end, 0);
            if (*end != '\0')
                return fail("bad target '" + tok + "'");
            return true;
        }
        if (auto it = labels.find(tok); it != labels.end()) {
            out = static_cast<std::int64_t>(it->second);
            return true;
        }
        return fail("unknown label '" + tok + "'");
    }

    /** Memory operand `off(base)`. */
    bool
    parseMem(const std::string &tok, std::uint8_t &base,
             std::int64_t &off)
    {
        const auto open = tok.find('(');
        const auto close = tok.find(')');
        if (open == std::string::npos || close == std::string::npos ||
            close < open)
            return fail("bad memory operand '" + tok + "'");
        const std::string off_s = cleanLine(tok.substr(0, open));
        const std::string base_s =
            cleanLine(tok.substr(open + 1, close - open - 1));
        if (off_s.empty()) {
            off = 0;
        } else if (!parseImm(off_s, off)) {
            return false;
        }
        return parseReg(base_s, false, base);
    }
};

/** @return the op whose mnemonic is @p mnem, or Op::NumOps if none. */
Op
opByName(const std::string &mnem)
{
    for (std::size_t i = 0; i < static_cast<std::size_t>(Op::NumOps); ++i) {
        if (mnem == opTable[i].name)
            return opTable[i].op;
    }
    return Op::NumOps;
}

} // anonymous namespace

AsmResult
assemble(const std::string &source)
{
    AsmResult result;
    Parser ctx;

    // Split into lines once; two passes over them.
    std::vector<std::string> lines;
    {
        std::istringstream is(source);
        std::string line;
        while (std::getline(is, line))
            lines.push_back(cleanLine(line));
    }

    std::string prog_name;
    std::vector<DataSegment> segments;

    auto diag = [&](int line_no, const std::string &msg) {
        result.ok = false;
        result.error = msg;
        result.errorLine = line_no;
        return result;
    };

    // Pass 1: directives, label addresses, instruction count.
    InstAddr pc = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string line = lines[i];
        if (line.empty())
            continue;

        // Leading label(s).
        while (true) {
            const auto colon = line.find(':');
            if (colon == std::string::npos)
                break;
            const std::string name = cleanLine(line.substr(0, colon));
            if (name.empty() || name.find(' ') != std::string::npos)
                return diag(static_cast<int>(i + 1), "bad label");
            if (ctx.labels.count(name))
                return diag(static_cast<int>(i + 1),
                            "duplicate label '" + name + "'");
            ctx.labels[name] = pc;
            line = cleanLine(line.substr(colon + 1));
        }
        if (line.empty())
            continue;

        if (line[0] == '.') {
            const auto words = splitWords(line);
            if (words[0] == ".name") {
                if (words.size() >= 2)
                    prog_name = words[1];
            } else if (words[0] == ".alloc") {
                if (words.size() < 3)
                    return diag(static_cast<int>(i + 1),
                                ".alloc needs symbol and size");
                const std::uint64_t count =
                    std::strtoull(words[2].c_str(), nullptr, 0);
                const std::uint64_t align = words.size() >= 4
                    ? std::strtoull(words[3].c_str(), nullptr, 0) : 8;
                if (align == 0 || (align & (align - 1)))
                    return diag(static_cast<int>(i + 1),
                                "bad .alloc alignment");
                ctx.nextData = (ctx.nextData + align - 1) & ~(align - 1);
                ctx.dataSymbols[words[1]] = ctx.nextData;
                ctx.nextData += count * 8;
            } else if (words[0] == ".init") {
                // handled in pass 2 (symbols already known by then)
            } else {
                return diag(static_cast<int>(i + 1),
                            "unknown directive " + words[0]);
            }
            continue;
        }
        ++pc;
    }

    // Pass 2: emit.
    std::vector<Instruction> insts;
    insts.reserve(pc);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::string line = lines[i];
        if (line.empty())
            continue;
        while (true) {
            const auto colon = line.find(':');
            if (colon == std::string::npos)
                break;
            line = cleanLine(line.substr(colon + 1));
        }
        if (line.empty())
            continue;

        const int line_no = static_cast<int>(i + 1);

        if (line[0] == '.') {
            const auto words = splitWords(line);
            if (words[0] == ".init") {
                if (words.size() < 3)
                    return diag(line_no, ".init needs base and words");
                std::int64_t base;
                ctx.error.clear();
                if (!ctx.parseImm(words[1], base))
                    return diag(line_no, ctx.error);
                DataSegment seg;
                seg.base = static_cast<Addr>(base);
                for (std::size_t w = 2; w < words.size(); ++w) {
                    seg.words.push_back(
                        std::strtoull(words[w].c_str(), nullptr, 0));
                }
                segments.push_back(std::move(seg));
            }
            continue;
        }

        // Mnemonic + operands.
        const auto sp = line.find_first_of(" \t");
        const std::string mnem =
            sp == std::string::npos ? line : line.substr(0, sp);
        std::string rest =
            sp == std::string::npos ? "" : cleanLine(line.substr(sp));

        // Trailing "!informing" marker on memory operations.
        bool informing = true;
        const auto bang = rest.find("!informing");
        if (bang != std::string::npos) {
            informing = false;
            rest = cleanLine(rest.substr(0, bang));
        }

        const Op op = opByName(mnem);
        if (op == Op::NumOps)
            return diag(line_no, "unknown mnemonic '" + mnem + "'");

        const auto ops = splitOperands(rest);
        Instruction in;
        in.op = op;
        in.informing = informing;
        ctx.error.clear();

        const Operands want = operandsOf(opInfo(op).form);
        bool ok = ops.size() == want.count ||
            ctx.fail("expected " + std::to_string(want.count) +
                     " operands, got " + std::to_string(ops.size()));
        for (std::uint8_t k = 0; ok && k < want.count; ++k) {
            const std::string &tok = ops[k];
            switch (want.at[k]) {
              case Operand::Rd: case Operand::Fd:
                ok = ctx.parseReg(tok, want.at[k] == Operand::Fd, in.rd);
                break;
              case Operand::Rs1: case Operand::Fs1:
                ok = ctx.parseReg(tok, want.at[k] == Operand::Fs1, in.rs1);
                break;
              case Operand::Rs2: case Operand::Fs2:
                ok = ctx.parseReg(tok, want.at[k] == Operand::Fs2, in.rs2);
                break;
              case Operand::Imm:
                ok = ctx.parseImm(tok, in.imm);
                break;
              case Operand::Mem:
                ok = ctx.parseMem(tok, in.rs1, in.imm);
                break;
              case Operand::MharTarget:
                if (tok == "off") {
                    in.imm = 0;
                    break;
                }
                [[fallthrough]];
              case Operand::Target:
                ok = ctx.parseTarget(tok, in.imm);
                break;
              case Operand::PcRel:
                if (tok.rfind("pc", 0) == 0) {
                    // "pc+N" / "pc-N": already relative.
                    char *end = nullptr;
                    in.imm = std::strtoll(tok.c_str() + 2, &end, 0);
                    if (*end != '\0')
                        ok = ctx.fail("bad pc-relative operand");
                } else if (ctx.parseTarget(tok, in.imm)) {
                    // Label form: convert to an offset from this pc.
                    in.imm -= static_cast<std::int64_t>(insts.size());
                } else {
                    ok = false;
                }
                break;
            }
        }

        if (!ok)
            return diag(line_no, ctx.error.empty() ? "parse error"
                                                   : ctx.error);
        insts.push_back(in);
    }

    Program prog(prog_name);
    prog.insts() = std::move(insts);
    std::uint32_t refs = 0;
    for (Instruction &in : prog.insts()) {
        if (isDataRef(in.op))
            in.staticRefId = refs++;
    }
    prog.setNumStaticRefs(refs);
    for (DataSegment &seg : segments)
        prog.addData(std::move(seg));

    std::string why;
    if (!prog.validate(&why)) {
        result.error = "program invalid: " + why;
        return result;
    }
    result.ok = true;
    result.program = std::move(prog);
    return result;
}

std::string
formatAssembly(const Program &prog)
{
    std::ostringstream os;
    if (!prog.name().empty())
        os << ".name " << prog.name() << "\n";
    for (const DataSegment &seg : prog.data()) {
        // Chunk initializers to keep lines short.
        for (std::size_t i = 0; i < seg.words.size(); i += 8) {
            os << ".init " << (seg.base + i * 8);
            for (std::size_t w = i;
                 w < std::min(seg.words.size(), i + 8); ++w)
                os << " 0x" << std::hex << seg.words[w] << std::dec;
            os << "\n";
        }
    }
    for (InstAddr pc = 0; pc < prog.size(); ++pc)
        os << "    " << disassemble(prog.inst(pc)) << "\n";
    return os.str();
}

} // namespace imo::isa
