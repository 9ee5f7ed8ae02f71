//! Putting the host into one known state before anything is timed.
//!
//! On the 2-core virtual machine this benchmark was built on, how long a
//! blocked thread takes to wake on the other processor depends on what
//! ran in the seconds before: after loopback network traffic (a
//! `serve_mixed` run, or any two echo connections) a `tiny_adhoc` run
//! completes 2 600 operations a second, after eight idle seconds 4 200,
//! with nothing else changed, and `write_maintain`'s median latency
//! differs by a quarter the same way (README.md, "The host's two
//! states"). A run cannot know what preceded it, so every run first
//! makes the traffic itself and always measures in the first state, the
//! one a machine that serves requests is in anyway.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Connections that chatter; each has a client and an echoing thread.
const CONNECTIONS: usize = 2;

/// Exchange small messages over loopback connections for `duration`.
pub fn prime(duration: Duration) -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for _ in 0..CONNECTIONS {
            // The listen backlog holds the connection until it is accepted.
            let mut client = TcpStream::connect(addr)?;
            let (mut served, _) = listener.accept()?;
            threads.push(scope.spawn(move || -> std::io::Result<()> {
                let mut message = [0u8; 16];
                // The client closing its end ends the echo.
                while served.read_exact(&mut message).is_ok() {
                    served.write_all(&message)?;
                }
                Ok(())
            }));
            threads.push(scope.spawn(move || -> std::io::Result<()> {
                let mut message = [0u8; 16];
                while Instant::now() < deadline {
                    client.write_all(&message)?;
                    client.read_exact(&mut message)?;
                }
                Ok(())
            }));
        }
        for thread in threads {
            thread.join().expect("a chatter thread panicked")?;
        }
        Ok(())
    })
}
