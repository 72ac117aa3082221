//! A small scriptable debugger for the simulator (`dim debug`).
//!
//! Reads commands from stdin (or a `--script` file), one per line:
//!
//! ```text
//! step [N]            execute N instructions (default 1), echoing each
//! break <addr|label>  set a breakpoint
//! delete <addr|label> remove a breakpoint
//! continue            run to the next breakpoint or halt
//! regs                print the register file
//! mem <addr|label> [len]   hex-dump memory (default 64 bytes)
//! disasm [addr|label] [n]  disassemble n instructions (default 8)
//! stats               print cycle/instruction counters
//! checkpoint          snapshot the whole machine state
//! restore             rewind to the last checkpoint
//! quit                stop debugging
//! ```
//!
//! Unknown commands print an error and continue, so scripts are robust.

use crate::CliError;
use dim_mips::asm::Program;
use dim_mips::disassemble_word;
use dim_mips_sim::Machine;
use std::collections::BTreeSet;
use std::io::{BufRead, Write};

/// The debugger session state.
struct Debugger<'a> {
    machine: Machine,
    program: &'a Program,
    breakpoints: BTreeSet<u32>,
    checkpoint: Option<Box<Machine>>,
}

/// Resolves `addr` as hex/decimal number or program label.
fn resolve(program: &Program, token: &str) -> Result<u32, CliError> {
    if let Some(hex) = token.strip_prefix("0x") {
        return u32::from_str_radix(hex, 16)
            .map_err(|_| CliError::new(format!("bad address `{token}`")));
    }
    if let Ok(n) = token.parse::<u32>() {
        return Ok(n);
    }
    program
        .symbol(token)
        .ok_or_else(|| CliError::new(format!("unknown label `{token}`")))
}

impl Debugger<'_> {
    fn print_location(&self, out: &mut impl Write) -> Result<(), CliError> {
        let pc = self.machine.cpu.pc;
        let text = match self.machine.fetch(pc) {
            Ok(inst) => inst.to_string(),
            Err(_) => "<outside text>".into(),
        };
        writeln!(out, "{pc:#010x}:   {text}")?;
        Ok(())
    }

    fn step(&mut self, n: u64, out: &mut impl Write) -> Result<(), CliError> {
        for _ in 0..n {
            if self.machine.halted().is_some() {
                writeln!(out, "program has halted")?;
                return Ok(());
            }
            self.print_location(out)?;
            self.machine.step()?;
        }
        Ok(())
    }

    fn cont(&mut self, out: &mut impl Write) -> Result<(), CliError> {
        let mut steps: u64 = 0;
        loop {
            if self.machine.halted().is_some() {
                writeln!(out, "program exited after {steps} instructions")?;
                return Ok(());
            }
            if steps > 0 && self.breakpoints.contains(&self.machine.cpu.pc) {
                writeln!(out, "breakpoint hit after {steps} instructions:")?;
                self.print_location(out)?;
                return Ok(());
            }
            if steps > 200_000_000 {
                writeln!(out, "giving up after {steps} instructions")?;
                return Ok(());
            }
            self.machine.step()?;
            steps += 1;
        }
    }

    fn regs(&self, out: &mut impl Write) -> Result<(), CliError> {
        use dim_mips::Reg;
        for chunk in Reg::all().collect::<Vec<_>>().chunks(4) {
            let line: Vec<String> = chunk
                .iter()
                .map(|&r| format!("{:>5} = {:#010x}", r.to_string(), self.machine.cpu.reg(r)))
                .collect();
            writeln!(out, "  {}", line.join("   "))?;
        }
        writeln!(
            out,
            "    $hi = {:#010x}     $lo = {:#010x}     pc = {:#010x}",
            self.machine.cpu.hi, self.machine.cpu.lo, self.machine.cpu.pc
        )?;
        Ok(())
    }

    fn mem(&self, addr: u32, len: usize, out: &mut impl Write) -> Result<(), CliError> {
        let bytes = self.machine.mem.read_bytes(addr, len);
        for (row, chunk) in bytes.chunks(16).enumerate() {
            let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
            let ascii: String = chunk
                .iter()
                .map(|&b| {
                    if (0x20..0x7f).contains(&b) {
                        b as char
                    } else {
                        '.'
                    }
                })
                .collect();
            writeln!(
                out,
                "{:#010x}  {:<47}  |{}|",
                addr as usize + 16 * row,
                hex.join(" "),
                ascii
            )?;
        }
        Ok(())
    }

    fn disasm(&self, addr: u32, n: usize, out: &mut impl Write) -> Result<(), CliError> {
        for k in 0..n {
            let pc = addr.wrapping_add(4 * k as u32);
            match self.machine.fetch(pc) {
                Ok(_) => {
                    let word = self.machine.mem.read_u32(pc)?;
                    let marker = if pc == self.machine.cpu.pc { ">" } else { " " };
                    writeln!(out, "{marker} {pc:#010x}:   {}", disassemble_word(word))?;
                }
                Err(_) => break,
            }
        }
        Ok(())
    }
}

/// Runs a debugger session over `commands`.
///
/// # Errors
///
/// I/O errors and fatal simulator faults; malformed commands only print
/// a diagnostic.
pub fn debug_session(
    program: &Program,
    commands: impl BufRead,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let mut dbg = Debugger {
        machine: Machine::load(program),
        program,
        breakpoints: BTreeSet::new(),
        checkpoint: None,
    };
    writeln!(
        out,
        "debugging: entry {:#010x}, {} instructions",
        program.entry,
        program.text.len()
    )?;
    for line in commands.lines() {
        let line = line?;
        let mut words = line.split_whitespace();
        let Some(cmd) = words.next() else { continue };
        let args: Vec<&str> = words.collect();
        let result = match cmd {
            "step" | "s" => {
                let n = args.first().and_then(|v| v.parse().ok()).unwrap_or(1);
                dbg.step(n, out)
            }
            "break" | "b" => match args.first() {
                Some(tok) => resolve(dbg.program, tok).map(|a| {
                    dbg.breakpoints.insert(a);
                    let _ = writeln!(out, "breakpoint at {a:#010x}");
                }),
                None => Err(CliError::new("break: missing address")),
            },
            "delete" => match args.first() {
                Some(tok) => resolve(dbg.program, tok).map(|a| {
                    dbg.breakpoints.remove(&a);
                }),
                None => Err(CliError::new("delete: missing address")),
            },
            "continue" | "c" => dbg.cont(out),
            "regs" | "r" => dbg.regs(out),
            "mem" | "m" => match args.first() {
                Some(tok) => resolve(dbg.program, tok).and_then(|a| {
                    let len = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(64);
                    dbg.mem(a, len, out)
                }),
                None => Err(CliError::new("mem: missing address")),
            },
            "disasm" | "d" => {
                let addr = match args.first() {
                    Some(tok) => resolve(dbg.program, tok)?,
                    None => dbg.machine.cpu.pc,
                };
                let n = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(8);
                dbg.disasm(addr, n, out)
            }
            "stats" => {
                let s = &dbg.machine.stats;
                writeln!(
                    out,
                    "{} instructions, {} cycles, {} branches ({} taken)",
                    s.instructions, s.cycles, s.branches, s.taken_branches
                )
                .map_err(CliError::from)
            }
            "checkpoint" => {
                dbg.checkpoint = Some(Box::new(dbg.machine.clone()));
                writeln!(out, "checkpoint saved at {:#010x}", dbg.machine.cpu.pc)
                    .map_err(CliError::from)
            }
            "restore" => match dbg.checkpoint.as_deref() {
                Some(saved) => {
                    dbg.machine = saved.clone();
                    writeln!(out, "restored to {:#010x}", dbg.machine.cpu.pc)
                        .map_err(CliError::from)
                }
                None => Err(CliError::new("restore: no checkpoint saved")),
            },
            "quit" | "q" => break,
            other => Err(CliError::new(format!("unknown command `{other}`"))),
        };
        if let Err(e) = result {
            writeln!(out, "error: {e}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dim_mips::asm::assemble;
    use std::io::BufReader;

    const PROGRAM: &str = "
        .data
        msg: .asciiz \"Hi!\"
        .text
        main: li $t0, 3
        loop: addiu $t0, $t0, -1
              bnez $t0, loop
              break 0";

    fn session(script: &str) -> String {
        let program = assemble(PROGRAM).unwrap();
        let mut out = Vec::new();
        debug_session(&program, BufReader::new(script.as_bytes()), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn step_echoes_instructions() {
        let out = session("step 2\nquit\n");
        assert!(out.contains("addiu $t0, $zero, 3"), "{out}");
        assert!(out.contains("addiu $t0, $t0, -1"), "{out}");
    }

    #[test]
    fn breakpoints_by_label() {
        let out = session("break loop\ncontinue\ncontinue\nregs\nquit\n");
        assert!(out.contains("breakpoint at"), "{out}");
        assert!(out.matches("breakpoint hit").count() >= 2, "{out}");
        assert!(out.contains("$t0 = 0x00000002"), "{out}");
    }

    #[test]
    fn continue_to_halt() {
        let out = session("continue\n");
        assert!(out.contains("program exited"), "{out}");
    }

    #[test]
    fn mem_dumps_hex_and_ascii() {
        let out = session("mem msg 8\nquit\n");
        assert!(out.contains("48 69 21"), "{out}");
        assert!(out.contains("|Hi!"), "{out}");
    }

    #[test]
    fn disasm_marks_current_pc() {
        let out = session("disasm main 3\nquit\n");
        assert!(out.contains("> 0x00400000"), "{out}");
    }

    #[test]
    fn bad_commands_do_not_abort() {
        let out = session("frobnicate\nbreak\nmem\nstep 1\nquit\n");
        assert!(out.contains("unknown command"), "{out}");
        assert!(out.contains("missing address"), "{out}");
        assert!(out.contains("addiu"), "session must continue: {out}");
    }

    #[test]
    fn checkpoint_and_restore_rewind_state() {
        let out = session(
            "step 1
checkpoint
step 4
regs
restore
regs
quit
",
        );
        assert!(out.contains("checkpoint saved"), "{out}");
        assert!(out.contains("restored to"), "{out}");
        // After restore, $t0 is back to its just-initialized value 3.
        let after_restore = out.rsplit("restored to").next().unwrap();
        assert!(after_restore.contains("$t0 = 0x00000003"), "{out}");
    }

    #[test]
    fn restore_without_checkpoint_is_an_error() {
        let out = session(
            "restore
quit
",
        );
        assert!(out.contains("no checkpoint saved"), "{out}");
    }

    #[test]
    fn stats_command() {
        let out = session("step 5\nstats\nquit\n");
        assert!(out.contains("instructions"), "{out}");
        assert!(out.contains("branches"), "{out}");
    }
}
